! error: rank 0: 5:3: assignment to x, which is not an array
program p
  integer x, i
  i = 2
  x(i) = 3
end program p
