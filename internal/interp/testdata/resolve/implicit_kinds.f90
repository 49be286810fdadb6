! i..n are integer, everything else real: the boundary letters on both sides.
! want: 1.5 1 2 2.5
! want: 4
program p
  h = 1.5
  i = 1.5
  n = 2.5
  o = 2.5
  print *, h, i, n, o
  do l2 = 1, 3
  enddo
  print *, l2
end program p
