! Rank 0 posts a receive it never waits on; rank 1's message lands in rank
! 0's array only after rank 0 has ended, and must not show in rank 0's final
! arrays (internal/interp and internal/exec both run this file).
program late
  include 'mpif.h'
  integer a(1:4), b(1:4)
  integer ierr, me, req, i
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  if (me == 0) then
    call mpi_irecv(a, 4, mpi_integer, 1, 7, mpi_comm_world, req, ierr)
  else
    do i = 1, 4
      b(i) = i * 11
    enddo
    do i = 1, 1000
      ierr = ierr + 0
    enddo
    call mpi_send(b, 4, mpi_integer, 0, 7, mpi_comm_world, ierr)
  endif
end program late
