! error: rank 0: 5:7: unknown array or intrinsic "x"
program p
  integer x, y
  x = 2
  y = x(1)
end program p
