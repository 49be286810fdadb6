! A variable actual is the caller's cell (the callee's write is visible after
! return); an expression actual is a temporary (it is not). An array-element
! actual associates an array view, so a callee that declares the dummy scalar
! writes its own cell.
! want: 11 1 5
program p
  integer x, y
  integer a(1:2)
  x = 1
  y = 1
  a(2) = 5
  call bump(x)
  call bump(y + 0)
  call bump(a(2))
  print *, x, y, a(2)
end program p

subroutine bump(v)
  integer v
  v = v + 10
end subroutine bump
