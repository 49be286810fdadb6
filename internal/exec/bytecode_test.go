package exec_test

import (
	"fmt"
	"math/big"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
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
// body, EXIT/CYCLE leaving an IF inside the loop — must still read what the
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
		// (The name is from when initialized logicals sent these IFs through
		// the closure bridge; the case is kept, now lowered natively.)
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

// TestCharacterValuesBridge: registers hold no strings, so a program that can
// create a character value is not lowered — it says where the first one
// comes from — and RunBytecode runs the walker on its source: still the
// walker's result, including the kind changes a character cell allows.
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
	p, err := exec.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Routed(), "5:3: character declaration"; !strings.HasPrefix(got, want) {
		t.Fatalf("not-lowered reason %q, want it to start with %q (the declaration of c, d)", got, want)
	}
	for _, m := range plan.PaperPair() {
		runAll(t, "chars/"+m.Name, src, 2, m)
	}
	// Without a character declaration the first literal that is a value,
	// not a PRINT item, is the reason.
	p, err = exec.CompileSource(wrap(`  logical f`, `
  print *, 'only an item'
  f = 'abcd' == 'abcd'
  print *, f`))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Routed(), "10:7: character literal"; !strings.HasPrefix(got, want) {
		t.Fatalf("not-lowered reason %q, want it to start with %q", got, want)
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

// TestHugeIntegerPowerEnds: integer ** with a 2⁶² exponent — folded at
// lowering time, computed by the VM and by the walker, inside a strip-wise
// loop too — ends within a wall bound (it used to multiply y times, so
// CompileSource never returned) and prints base**e modulo 2⁶⁴ under both
// engines.
func TestHugeIntegerPowerEnds(t *testing.T) {
	src := wrap(`  integer, parameter :: big = 3**(2**62)
  integer k, i, j, a(1:100)`, `
  k = 2**62
  i = 3**k
  j = (me + 2)**(k + 1)
  do i = 1, 100
    a(i) = mod(i + k, 5)**k
  enddo
  i = 3**k
  print *, 'pow', big, i, j, 7**1000000000, 5**(-3)`)
	type runs struct {
		walk, bytecode *interp.Result
		err            error
	}
	done := make(chan runs, 1)
	m := plan.MPICHGM2005()
	go func() {
		var r runs
		if r.walk, r.err = walkTier.run(src, 2, m); r.err == nil {
			r.bytecode, r.err = bytecodeTier.run(src, 2, m)
		}
		done <- r
	}()
	var r runs
	select {
	case r = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("integer ** with a 2**62 exponent still running after 30 s")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	requireBitIdentical(t, "pow", r.walk, r.bytecode)
	// The expected words, from math/big: b**e mod 2⁶⁴ as a signed integer.
	pow := func(b, e int64) int64 {
		mod := new(big.Int).Lsh(big.NewInt(1), 64)
		v := new(big.Int).Exp(new(big.Int).Mod(big.NewInt(b), mod), big.NewInt(e), mod)
		return int64(v.Uint64())
	}
	for rank, out := range r.walk.Output {
		want := interp.FormatPrintLine([]interp.Value{interp.StrVal("pow"),
			interp.IntVal(pow(3, 1<<62)), interp.IntVal(pow(3, 1<<62)), interp.IntVal(pow(int64(rank)+2, 1<<62+1)),
			interp.IntVal(pow(7, 1000000000)), interp.IntVal(0)})
		if len(out) != 1 || out[0] != want {
			t.Fatalf("rank %d printed %q, want %q", rank, out, want)
		}
	}
}

// TestLoweredStatementFailures: the statements that run as instructions of
// their own — frame setup, CALL, MPI calls, by-name stores — fail with the
// walker's exact error at the walker's exact virtual time. The compute
// before each failure makes a charge flushed late or early show.
func TestLoweredStatementFailures(t *testing.T) {
	const work = `
  s = 0
  do i = 1, 7
    s = s + i * (me + 2)
  enddo`
	cases := []struct{ name, decls, body, subs, want string }{
		{"two bad MPI arguments: the first one wins", `  real a(8)
  integer i, s, req`, work + `
  call mpi_isend(a(s / s + 8), 2 * s - 3 * s, 70 + s, 1 - me, 0, mpi_comm_world, req, ierr)`, ``,
			"array a: subscript 9 of dimension 1 out of bounds 1:8"},
		{"a bad count after an out-of-bounds buffer subscript", `  real a(8)
  integer i, s, req`, work + `
  call mpi_irecv(a(0 - s), -3, mpi_real, 1 - me, 0, mpi_comm_world, req, ierr)`, ``,
			"of dimension 1 out of bounds 1:8"},
		{"a bad count before a bad peer", `  real a(8)
  integer i, s, req`, work + `
  call mpi_isend(a, 0 - s, mpi_real, s + 5, 0, mpi_comm_world, req, ierr)`, ``,
			"negative MPI count -"},
		{"MPI output argument that cannot be assigned", `  integer, parameter :: c = 3
  integer i, s`, work + `
  call mpi_comm_rank(mpi_comm_world, c, ierr)`, ``,
			"cannot assign to named constant c"},
		{"negative extent from a forward-referenced constant in a callee", `  integer i, s`, work + `
  call shaped(s)`, `
subroutine shaped(k)
  integer, parameter :: c = d - 4 - k / k
  integer, parameter :: d = 5
  integer k
  integer w(1:c)
  w(1) = k
end subroutine shaped
`, "array w: negative extent 1:-5"},
		{"negative extent from a dummy scalar bound", `  integer i, s`, work + `
  call sized(0 - s)`, `
subroutine sized(k)
  integer k
  real w(2, k)
  w(1, 1) = k
end subroutine sized
`, "array w: negative extent 1:-"},
		{"wrong arity", `  integer i, s`, work + `
  call bump(s, i)`, ``,
			"call to bump with 2 args, wants 1"},
		{"unknown subroutine", `  integer i, s`, work + `
  call nowhere(s + 1)`, ``,
			"unknown subroutine nowhere"},
		{"store to a named constant", `  integer, parameter :: c = 3
  integer i, s`, work + `
  c = s + c`, ``,
			"cannot assign to named constant c"},
		{"named constant as a by-reference actual", `  integer, parameter :: c = 3
  integer i, s`, work + `
  call bump(c)`, ``,
			"cannot assign to named constant c"},
		{"element store through a dummy that received a scalar", `  integer i, s`, work + `
  call setelem(s, i)`, `
subroutine setelem(x, i)
  integer i
  x(i - 7) = i * 2
end subroutine setelem
`, "assignment to x, which is not an array"},
		{"element load through a dummy that received a scalar", `  integer i, s`, work + `
  call getelem(s, i)`, `
subroutine getelem(x, i)
  integer i
  i = x(i - 7) + 1
end subroutine getelem
`, `unknown array or intrinsic "x"`},
		{"scalar read of a dummy that received an array", `  integer i, s, v(4)`, work + `
  call getscal(v, i)`, `
subroutine getscal(x, i)
  integer i
  i = i * 2 + x
end subroutine getscal
`, "whole-array reference x in scalar context"},
		{"element actual out of the array", `  integer i, s, v(4)`, work + `
  call bump(v(s))`, ``,
			"array v: subscript"},
		{"error two calls deep", `  integer i, s, v(4)`, work + `
  call outer(v, s)`, `
subroutine outer(a, k)
  integer a(*), k
  k = k / 7
  call inner(a(2), k)
end subroutine outer

subroutine inner(a, k)
  integer a(3), k, j
  do j = 1, k
    a(j) = j
  enddo
end subroutine inner
`, "array a: subscript 4 of dimension 1 out of bounds 1:3"},
	}
	for _, tc := range cases {
		src := wrap(tc.decls, tc.body) + tc.subs
		for _, m := range plan.PaperPair() {
			requireSameFailure(t, tc.name+"/"+m.Name, src, 2, m, tc.want)
		}
	}
}

// TestCalleeSeesItsArgumentsAsTheWalkerDoes: association cases that are not
// errors — a dummy array stays invisible to its own unit's bounds and
// initializers until its declaration, duplicate dummies, a dummy without
// any declaration used as the caller shaped it, implicit cells created by a
// callee's initializers, STOP inside a callee.
func TestCalleeSeesItsArgumentsAsTheWalkerDoes(t *testing.T) {
	src := wrap(`  integer v(6), i, s
  real q`, `
  do i = 1, 6
    v(i) = i * 3 + me
  enddo
  s = 4
  q = 1.5
  call early(v, s)
  call twice(s, s)
  call asis(v, s)
  call initcells(s)
  print *, 'back', s, q, v(1), v(6)
  call halt(s)
  print *, 'not reached', s`) + `
subroutine early(a, k)
  integer :: m = a + 2
  integer k
  integer a(k)
  k = m + a(k)
end subroutine early

subroutine twice(x, y)
  integer x, y
  x = x + 1
  y = y * 2 + x
end subroutine twice

subroutine asis(a, k)
  integer k
  k = k + a(6) - a(1)
end subroutine asis

subroutine initcells(k)
  integer :: w = later * 2 + 3
  integer later, k
  later = later + 5
  k = k + w + later
end subroutine initcells

subroutine halt(k)
  integer k
  if (k > 0) then
    stop
  endif
  k = -1
end subroutine halt
`
	for _, m := range plan.PaperPair() {
		runAll(t, "association/"+m.Name, src, 2, m)
	}
}

// TestForwardReferenceKeepsImplicitCell: an initializer reading a scalar
// before its declaration creates the cell with its implicit type, and the
// declaration then keeps that cell — so the declared type says nothing about
// the cell's kind, and no integer fast path may be chosen from it.
func TestForwardReferenceKeepsImplicitCell(t *testing.T) {
	src := wrap(`  real :: y = x + 1
  integer x, z`, `
  x = 2.5
  z = x + 1
  print *, 'fwd', x, y, z, x + 1`)
	for _, m := range plan.PaperPair() {
		runAll(t, "fwd/"+m.Name, src, 2, m)
	}
}
