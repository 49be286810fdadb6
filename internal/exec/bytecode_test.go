package exec_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/plan"
)

// wrap dresses a declaration block and a body as a two-rank MPI program
// with the bump/halve helper subroutines in scope.
func wrap(decls, body string) string {
	return `
program t
  include 'mpif.h'
  integer ierr, me
` + decls + `
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
` + body + `
  call mpi_finalize(ierr)
end program t

subroutine bump(x)
  integer x
  x = x + 100
end subroutine bump

subroutine halve(r)
  real r
  r = r / 2
end subroutine halve
`
}

// TestLoadForwardingInvalidation: every way a forwarded scalar load can go
// stale — a store, a coercing store, a callee writing through the cell, a
// control-flow merge, a short-circuit, a DO variable assigned in its own
// body, EXIT/CYCLE escaping a bridged statement — must still read what the
// walker reads.
func TestLoadForwardingInvalidation(t *testing.T) {
	cases := []struct{ name, decls, body string }{
		{"store between reads", `  integer x, y, z`, `
  x = 3 + me
  y = x + x
  x = x + 1
  z = x + y
  print *, 'sbr', x, y, z`},
		{"real cell assigned an integer", `  real r, q
  integer k`, `
  k = 7 + me
  r = k
  q = r / 2
  r = 3
  print *, 'coerce', r, q, r / 2, k / 2`},
		{"integer cell assigned a real", `  integer k, l`, `
  k = 2.75 + me
  l = k * 2
  print *, 'trunc', k, l`},
		{"callee writes between reads", `  integer n, a, b
  real r, s`, `
  n = 5 + me
  a = n + 1
  call bump(n)
  b = n + 1
  r = 9.0
  s = r + 1
  call halve(r)
  print *, 'byref', n, a, b, r, s, r + 1`},
		{"if/else merge", `  integer x, y, z`, `
  x = 5
  if (me > 0) then
    y = x + 1
    x = x + 10
  else
    y = x + 2
  endif
  z = x + y
  print *, 'merge', x, y, z`},
		{"read only on the taken branch", `  integer x, y, z`, `
  x = 5
  y = 0
  if (me > 0) then
    y = x
  endif
  z = x + 1
  print *, 'branch', y, z`},
		{"short-circuit skips the second read", `  integer x, y
  logical f, g`, `
  x = 5
  f = me > 0 .and. x > 2
  y = x + 1
  g = me > 0 .or. x > 7
  print *, 'short', f, g, y, x + 2`},
		{"do variable assigned in its body", `  integer i, s`, `
  s = 0
  do i = 1, 10
    if (i == 3) then
      i = 7 + me
    endif
    s = s + i
  enddo
  print *, 'dovar', s, i`},
		{"do variable passed to a callee", `  integer i, s`, `
  s = 0
  do i = 1, 4
    s = s + i
    call bump(i)
    s = s + i
  enddo
  print *, 'docall', s, i`},
		{"do over a real cell", `  real x, y`, `
  y = 0.5
  do x = 1, 3
    y = y + x / 2
  enddo
  x = x * 0.5
  print *, 'doreal', x, y`},
		{"exit and cycle through bridged statements", `  integer i, s, u
  logical :: stopnow = .false.
  logical :: odd = .false.`, `
  s = 0
  u = 0
  do i = 1, 10
    s = s + i
    odd = mod(i + me, 2) == 1
    if (odd) then
      cycle
    endif
    u = u + i
    if (i == 6) then
      stopnow = .true.
    endif
    if (stopnow) then
      exit
    endif
    u = u + s
  enddo
  print *, 'bridged', i, s, u`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range plan.PaperPair() {
				runAll(t, m.Name, wrap(tc.decls, tc.body), 2, m)
			}
		})
	}
}

// TestSignedZeroConstants: constants intern by bit pattern, so -0.0 does not
// land on the 0.0 register (Go's == cannot tell them apart).
func TestSignedZeroConstants(t *testing.T) {
	src := wrap(`  real x, y`, `
  x = 0.0
  y = -0.0
  print *, 1.0/x, 1.0/y`)
	m := plan.MPICHGM2005()
	runAll(t, "negzero", src, 2, m)
	res, err := bytecodeTier.run(src, 2, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Output[0][0]; got != "+Inf -Inf" {
		t.Fatalf("printed %q, want %q", got, "+Inf -Inf")
	}
}

// TestCharacterValuesBridge: registers hold no strings, so everything a
// character value can reach runs on the closure tier — and still agrees
// with the walker, including the kind changes a character cell allows.
func TestCharacterValuesBridge(t *testing.T) {
	src := wrap(`  character(len=4) c, d
  character(len=2), parameter :: tag = 'ok'
  logical :: f = 'yes'
  integer i, hits, k
  real r`, `
  c = 'abcd'
  d = c
  hits = 0
  do i = 1, 6
    if (c == 'abcd' .and. i > 2) then
      hits = hits + i
    endif
    if (d /= tag) then
      hits = hits + 1
    endif
  enddo
  k = 'zz'
  r = 'zz'
  d = 5 + me
  i = d + 1
  print *, c, ' ', tag, ' ', f, hits, k, r, d, i, max('a', 'b'), +c, c < tag`)
	for _, m := range plan.PaperPair() {
		runAll(t, "chars/"+m.Name, src, 2, m)
	}
}

// requireSameFailure runs src under every engine and requires the same
// error text — the run's and each rank's — the same virtual time at the
// moment of failure, and the same per-rank compute/blocked split as the
// walker.
func requireSameFailure(t *testing.T, label, src string, np int, m plan.Machine, want string) {
	t.Helper()
	var walk *interp.Result
	var walkErr error
	for _, eng := range allEngines {
		res, err := eng.run(src, np, m)
		if err == nil {
			t.Fatalf("%s/%s: no error, want %q", label, eng, want)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s/%s: error %q, want it to contain %q", label, eng, err, want)
		}
		if res == nil || res.Stats == nil {
			t.Fatalf("%s/%s: no run statistics beside the error %q", label, eng, err)
		}
		if eng.name == walkTier.name {
			walk, walkErr = res, err
			continue
		}
		if err.Error() != walkErr.Error() {
			t.Fatalf("%s/%s: error %q, walk says %q", label, eng, err, walkErr)
		}
		if res.Elapsed() != walk.Elapsed() {
			t.Fatalf("%s/%s: failed at %v, walk at %v", label, eng, res.Elapsed(), walk.Elapsed())
		}
		for r := range walk.Stats.PerRank {
			if walk.Stats.PerRank[r] != res.Stats.PerRank[r] {
				t.Fatalf("%s/%s: rank %d stats %+v, walk %+v", label, eng, r, res.Stats.PerRank[r], walk.Stats.PerRank[r])
			}
			if got, want := fmt.Sprint(res.Errors[r]), fmt.Sprint(walk.Errors[r]); got != want {
				t.Fatalf("%s/%s: rank %d error %q, walk says %q", label, eng, r, got, want)
			}
		}
		if same, why := interp.SameOutput(walk, res); !same {
			t.Fatalf("%s/%s: output before the failure: %s", label, eng, why)
		}
	}
}

// TestZeroDivisorErrorTime: a division or mod whose divisor is only known
// at run time still flushes the pending charges first, so a zero divisor in
// the middle of a long expression fails at the walker's exact virtual time
// — charges are merged only across divisors folded to non-zero constants.
func TestZeroDivisorErrorTime(t *testing.T) {
	cases := []struct{ name, expr, want string }{
		{"mod", `k*3 + mod(k*2 + 1, 13) + mod(k + 4, n) + k*5 - mod(k, 7)`, "mod by zero"},
		{"div", `k*3 + (k*2 + 1)/13 + (k + 4)/n + k*5 - k/7`, "integer division by zero"},
		{"generic mod", `k*3 + mod(r, 2) + mod(k + 4, z) + k*5`, "mod by zero"},
		{"generic div", `k*3 + r/2 + (k + 4)/z + k*5`, "integer division by zero"},
	}
	for _, tc := range cases {
		// z is an integer the lowering cannot type: a DO ran over the real
		// cell, which leaves an integer in it.
		src := wrap(`  integer i, k, n, s
  real r, z`, `
  n = me - me
  r = 1.5
  do z = 0, -1
  enddo
  s = 0
  do i = 1, 5
    k = i + 2
    s = s + i
    if (i == 4) then
      s = `+tc.expr+`
    endif
  enddo
  print *, 'unreachable', s`)
		for _, m := range plan.PaperPair() {
			requireSameFailure(t, fmt.Sprintf("%s/%s", tc.name, m.Name), src, 2, m, tc.want)
		}
	}
}
