! The caller passes an array where the callee declares a scalar: the dummy's
! name then holds both, v(2) reads the caller's array, bare v the local cell.
! want: 6 9 0
program p
  integer a(1:3)
  integer s, t
  a(1) = 5
  a(2) = 6
  call f(a, s, t)
  print *, s, a(1), t
end program p

subroutine f(v, r, q)
  integer v, r, q
  r = v(2)
  v(1) = 9
  q = v
end subroutine f
