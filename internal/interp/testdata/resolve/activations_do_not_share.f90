! Two activations of one subroutine, in sequence and nested, each have their
! own locals (declared and implicit).
! want: 22
! want: 123
program p
  integer r, acc
  r = 0
  call count(r)
  call count(r)
  print *, r
  acc = 0
  call down(3, acc)
  print *, acc
end program p

subroutine count(out)
  integer out
  integer loc
  k = k + 1
  loc = loc + 1
  out = out * 10 + loc + k
end subroutine count

subroutine down(d, acc)
  integer d, acc
  integer mine
  mine = d
  if (d > 0) then
    call down(d - 1, acc)
  endif
  acc = acc * 10 + mine
end subroutine down
