! One name is an array in the caller and a scalar in the callee (and the
! other way round): slots are per unit.
! want: 7 3
program p
  integer v(1:2)
  integer w
  v(1) = 3
  w = 0
  call g(w)
  print *, w, v(1)
end program p

subroutine g(v)
  integer v
  integer w(1:2)
  w(2) = 7
  v = w(2)
end subroutine g
