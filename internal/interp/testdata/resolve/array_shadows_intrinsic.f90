! An array named like an intrinsic is the array.
! want: 30 20 1
program p
  integer mod(1:4)
  integer i
  do i = 1, 4
    mod(i) = i * 10
  enddo
  print *, mod(3), max(mod(1), mod(2)), min(7, 1)
end program p
