! b is read before its initializer ran, which makes it an implicit scalar as
! well as a constant: reads see the constant, the store finds the cell.
! want: 3 5
program p
  integer, parameter :: k = 3 + b
  integer, parameter :: b = 5
  b = 7
  print *, k, b
end program p
