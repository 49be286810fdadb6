! A predefined MPI constant reads as its value until the program stores to
! the name, which creates an implicit scalar in front of it.
! want: 1 3
! want: 5 3
program p
  print *, mpi_integer, mpi_double_precision
  mpi_integer = 5.9
  print *, mpi_integer, mpi_double_precision
end program p
