program rejinter
  implicit none
  include 'mpif.h'
  integer, parameter :: m = 2
  integer, parameter :: ny = 3
  integer, parameter :: nz = 8
  integer, parameter :: nx = 16
  integer, parameter :: np = 2
  integer as(1:m, 1:ny, 1:nz)
  integer ar(1:m, 1:ny, 1:nz)
  integer bs(1:nx)
  integer br(1:nx)
  integer ix, iy, inode, ierr, me, checksum

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do inode = 1, nz
    do iy = 1, ny
      do ix = 1, m
        as(ix, iy, inode) = me*3 + ix*5 + iy*7 + inode*11
      enddo
    enddo
  enddo
  call mpi_alltoall(as, 12, mpi_integer, ar, 12, mpi_integer, mpi_comm_world, ierr)
  do ix = 1, nx
    bs(ix) = ar(1, 1, 1) + ix*3 + me
  enddo
  call mpi_alltoall(bs, nx/np, mpi_integer, br, nx/np, mpi_integer, mpi_comm_world, ierr)
  checksum = ar(1, 1, 1) + ar(m, ny, nz) + br(1) + br(nx)
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program rejinter
