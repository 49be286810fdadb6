! An undeclared actual argument is rejected where the call binds it.
! error: rank 0: 5:10: undeclared variable z under implicit none
program p
  implicit none
  call f(z)
end program p

subroutine f(a)
  integer a
  a = 1
end subroutine f
