! A name first read, then written, and the reverse; the implicit kind comes
! from the first letter, whichever touch creates the cell.
! want: 0 0
! want: 2 3
! want: 1.5 7
program p
  print *, k, x
  k = 2.7
  x = 3
  print *, k, x
  y = 1.5
  j = 7
  print *, y, j
end program p
