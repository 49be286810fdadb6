! error: rank 0: 5:3: undeclared variable i under implicit none
program p
  implicit none
  integer s
  do i = 1, 3
    s = s + 1
  enddo
end program p
