! A named constant in a later constant's initializer and in array bounds.
! want: 4 9 9 4 6
program p
  integer, parameter :: n = 4
  integer, parameter :: m = n * 2 + 1
  integer a(1:m), b(n:m)
  integer i, c
  a(m) = m
  b(n) = n
  c = 0
  do i = n, m
    c = c + 1
  enddo
  print *, n, m, a(9), b(4), c
end program p
