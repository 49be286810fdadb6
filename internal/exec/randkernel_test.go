package exec_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
)

// kgen writes one random kernel. Every program it produces is valid and
// runs clean: subscripts stay in bounds (a loop variable whose range fits,
// or mod(abs(e), extent) + lo), divisors are non-zero, and reals are
// clamped so no NaN reaches the array comparison.
type kgen struct {
	r *rand.Rand
	// x draws the choices of the calls-and-messages phase (extras): a
	// stream of its own, so the phases before it keep the shapes their
	// seeds always gave them.
	x     *rand.Rand
	sb    strings.Builder
	depth int
	loops []kloop // enclosing DO loops, outermost first
	free  []string
}

// kloop is an enclosing DO loop: its variable and the value range it can
// take, so it can stand as a subscript where the range fits.
type kloop struct {
	v      string
	lo, hi int
	dirty  bool // assigned inside the body: no longer a safe subscript
}

const (
	kN  = 12 // ia(1:kN), ra(0:kN-1, 1:3)
	kNB = 4  // ib(1:4, 1:3, 1:2)
	kNS = 8  // as/ar(1:kNS): the alltoall buffers (np = 2, 4 per rank)
)

var (
	kInts  = []string{"i0", "i1", "i2", "i3"}
	kReals = []string{"r0", "r1", "r2"}
	kBools = []string{"l0", "l1"}
)

func (g *kgen) pick(ss []string) string { return ss[g.r.Intn(len(ss))] }

func (g *kgen) line(format string, args ...interface{}) {
	g.sb.WriteString(strings.Repeat("  ", g.depth+1))
	fmt.Fprintf(&g.sb, format, args...)
	g.sb.WriteByte('\n')
}

// sub is an in-bounds subscript for a dimension lo..hi.
func (g *kgen) sub(lo, hi int) string {
	var fits []string
	for _, l := range g.loops {
		if !l.dirty && l.lo >= lo && l.hi <= hi {
			fits = append(fits, l.v)
			if l.hi+1 <= hi {
				fits = append(fits, l.v+" + 1")
			}
		}
	}
	switch {
	case len(fits) > 0 && g.r.Intn(4) > 0:
		return g.pick(fits)
	case g.r.Intn(3) == 0:
		return fmt.Sprint(lo + g.r.Intn(hi-lo+1))
	}
	return fmt.Sprintf("mod(abs(%s), %d) + %d", g.intExpr(1), hi-lo+1, lo)
}

func (g *kgen) intExpr(d int) string {
	if d <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(4) {
		case 0:
			return fmt.Sprint(g.r.Intn(21))
		case 1:
			if len(g.loops) > 0 {
				return g.loops[g.r.Intn(len(g.loops))].v
			}
		case 2:
			return g.pick([]string{"me", "nz", "n"})
		}
		return g.pick(kInts)
	}
	a, b := g.intExpr(d-1), g.intExpr(d-1)
	switch g.r.Intn(14) {
	case 0, 1:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 3:
		return fmt.Sprintf("(%s * %s)", a, g.pick([]string{"2", "3", "me", "nz"}))
	case 4:
		return fmt.Sprintf("(%s / %d)", a, 1+g.r.Intn(9))
	case 5:
		return fmt.Sprintf("(%s / nz)", a)
	case 6:
		return fmt.Sprintf("mod(%s, %d)", a, 2+g.r.Intn(30))
	case 7:
		return fmt.Sprintf("mod(%s, nz)", a)
	case 8:
		return fmt.Sprintf("%s(%s, %s)", g.pick([]string{"min", "max"}), a, b)
	case 9:
		return fmt.Sprintf("abs(%s)", a)
	case 10:
		return fmt.Sprintf("(-%s)", a)
	case 11:
		return fmt.Sprintf("ia(%s)", g.sub(1, kN))
	case 12:
		return fmt.Sprintf("ib(%s, %s, %s)", g.sub(1, kNB), g.sub(1, 3), g.sub(1, 2))
	}
	return fmt.Sprintf("int(%s)", g.realExpr(d-1))
}

func (g *kgen) realExpr(d int) string {
	if d <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return g.pick([]string{"0.5", "1.25", "2.0", "0.0", "3.75"})
		case 1:
			return g.pick(kInts) // integer operand: promotion
		}
		return g.pick(kReals)
	}
	a, b := g.realExpr(d-1), g.realExpr(d-1)
	switch g.r.Intn(10) {
	case 0, 1:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 3:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 4:
		return fmt.Sprintf("(%s / (abs(%s) + 1.0))", a, b)
	case 5:
		return fmt.Sprintf("sqrt(abs(%s))", a)
	case 6:
		return fmt.Sprintf("real(%s)", g.intExpr(d-1))
	case 7:
		return fmt.Sprintf("(-%s)", a)
	case 8:
		return fmt.Sprintf("mod(%s, 2.5)", a)
	}
	return fmt.Sprintf("ra(%s, %s)", g.sub(0, kN-1), g.sub(1, 3))
}

// clamped bounds a real right-hand side so products cannot run off to
// infinity over the loop nests (and exercises the generic min/max).
func (g *kgen) clamped(d int) string {
	return fmt.Sprintf("min(max(%s, -1000.0), 1000.0)", g.realExpr(d))
}

func (g *kgen) boolExpr(d int) string {
	if d <= 0 || g.r.Intn(4) == 0 {
		if g.r.Intn(3) == 0 {
			return g.pick([]string{".true.", ".false."})
		}
		return g.pick(kBools)
	}
	rel := g.pick([]string{"==", "/=", "<", "<=", ">", ">="})
	switch g.r.Intn(7) {
	case 0, 1:
		return fmt.Sprintf("(%s %s %s)", g.intExpr(d-1), rel, g.intExpr(d-1))
	case 2:
		return fmt.Sprintf("(%s %s %s)", g.realExpr(d-1), rel, g.realExpr(d-1))
	case 3:
		return fmt.Sprintf("(%s %s %s)", g.intExpr(d-1), rel, g.realExpr(d-1))
	case 4:
		return fmt.Sprintf("(.not. %s)", g.boolExpr(d-1))
	case 5:
		return fmt.Sprintf("(%s .and. %s)", g.boolExpr(d-1), g.boolExpr(d-1))
	}
	return fmt.Sprintf("(%s .or. %s)", g.boolExpr(d-1), g.boolExpr(d-1))
}

func (g *kgen) assign() {
	switch g.r.Intn(10) {
	case 0, 1:
		g.line("%s = %s", g.pick(kInts), g.intExpr(3))
	case 2:
		g.line("%s = %s", g.pick(kReals), g.clamped(3))
	case 3:
		g.line("%s = %s", g.pick(kBools), g.boolExpr(2))
	case 4:
		g.line("ia(%s) = %s", g.sub(1, kN), g.intExpr(3))
	case 5:
		g.line("ra(%s, %s) = %s", g.sub(0, kN-1), g.sub(1, 3), g.clamped(2))
	case 6:
		g.line("ib(%s, %s, %s) = %s", g.sub(1, kNB), g.sub(1, 3), g.sub(1, 2), g.intExpr(2))
	case 7:
		// Kind-crossing stores: the cell's kind wins.
		g.line("%s = %s", g.pick(kInts), g.clamped(1))
		g.line("%s = %s", g.pick(kReals), g.intExpr(1))
	case 8:
		if g.r.Intn(2) == 0 {
			g.line("call bump(%s)", g.pick(kInts))
		} else {
			g.line("call halve(%s)", g.pick(kReals))
		}
	case 9:
		// A DO over a real cell leaves an integer in it: from here on the
		// "real" is an integer only the run-time kind checks can see.
		rv, iv := g.pick(kReals), g.pick(kInts)
		g.line("do %s = 1, 2", rv)
		g.line("  %s = %s + %s", iv, iv, rv)
		g.line("enddo")
	}
}

func (g *kgen) ifStmt(budget int) {
	g.line("if (%s) then", g.boolExpr(2))
	g.depth++
	g.block(budget)
	if n := len(g.loops); n > 0 && g.r.Intn(4) == 0 {
		g.line("%s", g.pick([]string{"cycle", "exit"}))
	}
	g.depth--
	if g.r.Intn(2) == 0 {
		g.line("else")
		g.depth++
		g.block(budget)
		g.depth--
	}
	g.line("endif")
}

func (g *kgen) doStmt(budget int) {
	if len(g.free) == 0 {
		g.assign()
		return
	}
	v := g.free[len(g.free)-1]
	g.free = g.free[:len(g.free)-1]
	l := kloop{v: v, lo: 1, hi: kN}
	switch g.r.Intn(6) {
	case 0:
		l.hi = kNB
		g.line("do %s = 1, %d", v, kNB)
	case 1:
		l.lo, l.hi = 0, kN-1
		g.line("do %s = 0, n - 1", v) // folds: n is a parameter
	case 2:
		g.line("do %s = 1, nrt", v) // run-time bound, 1 <= nrt <= n
	case 3:
		g.line("do %s = %d, 1, -1", v, kN)
	case 4:
		l.hi = 3
		g.line("do %s = 1, 3", v)
	case 5:
		g.line("do %s = 1, n, 2", v)
	}
	g.loops = append(g.loops, l)
	g.depth++
	g.block(budget)
	if g.r.Intn(8) == 0 {
		// Assigning the DO variable in its own body: legal here, the head
		// of the next iteration overwrites it.
		g.loops[len(g.loops)-1].dirty = true
		g.line("%s = %s", v, g.intExpr(1))
		g.assign()
	}
	g.depth--
	g.loops = g.loops[:len(g.loops)-1]
	g.free = append(g.free, v)
	g.line("enddo")
}

func (g *kgen) block(budget int) {
	for n := 2 + g.r.Intn(3); n > 0; n-- {
		switch k := g.r.Intn(10); {
		case k < 3 && budget > 0 && len(g.loops) < 3:
			g.doStmt(budget - 1)
		case k < 5 && budget > 0:
			g.ifStmt(budget - 1)
		default:
			g.assign()
		}
	}
}

// extras emits the calls-and-messages phase, everything the lowering runs
// as an instruction of its own rather than inline arithmetic: subroutines
// taking an assumed-size and an explicit-shape dummy array (bounds from
// dummy scalars), element actuals (sequence association) and expression
// actuals (a temporary: the callee's write is lost), callees that RETURN
// out of a DO, EXIT and CYCLE inside one, send a stray EXIT or CYCLE to the
// caller's loop, call on two deep, or touch their dummies by name only; an
// ISEND/IRECV/WAITALL exchange whose peer, tag and request slot are
// run-time expressions; and a PRINT mixing literals with every kind.
func (g *kgen) extras() {
	x := g.x
	pick := func(ss ...string) string { return ss[x.Intn(len(ss))] }
	col := 1 + x.Intn(3)
	g.line("call fillseq(ia, %d, %s)", kN, pick(kInts...))
	g.line("call fillseq(ib(1, %d, %d), %d, i1 + %d)", col, 1+x.Intn(2), 1+x.Intn(kNB), x.Intn(9))
	g.line("call scale2(ra, %d, 3, %d)", kN, 1+x.Intn(4))
	g.line("call scale2(ra(0, %d), %d, 1, i0)", col, 1+x.Intn(kN))
	g.line("call bump(%s + %d)", pick(kInts...), x.Intn(5))
	g.line("call bump(ia(%d) * 1)", 1+x.Intn(kN))
	g.line("call findfirst(ia, nrt, %d, k1)", x.Intn(40)-5)
	g.line("call sumodd(ia, %d, k2)", 3+x.Intn(kN-2))
	g.line("call chain(ia, n - 1, k2)")
	g.line("call byname(%s, %s)", pick(kReals...), pick(kInts...))
	g.line("k3 = 0")
	g.line("do j1 = 1, %d", 4+x.Intn(5))
	g.line("  call leave(j1 - %d, %d)", 2+x.Intn(4), 1+x.Intn(3))
	g.line("  k3 = k3 + j1")
	g.line("enddo")
	for i := 1; i <= 3; i++ {
		g.line("sb(%d) = mod(%s, 1000) + me", i, pick("k1", "k2", "k3", "i0", "i2"))
	}
	tag := x.Intn(50)
	g.line("call mpi_irecv(rb(1 + me - me), 3, mpi_integer, mod(me + 1, 2), %d + n - %d, mpi_comm_world, rq(1 + mod(me, 2)), ierr)", tag, kN)
	g.line("call mpi_isend(sb, 2 + n / %d, mpi_integer, 1 - me, %d + mod(n, %d), mpi_comm_world, rq(2 - mod(me, 2)), ierr)", kN, tag, kN)
	g.line("call mpi_waitall(2, rq, mpi_statuses_ignore, ierr)")
	g.line("k3 = k3 + rb(%d) - rb(%d)", 1+x.Intn(3), 1+x.Intn(3))
	g.line("print *, 'calls', k1, k2, k3, ' r1 =', r1, l0, 'rank>0', me > 0, %s", pick("r0 / 2", "i0 + 0.5", "k1 == k2"))
}

// kernelSubs are the subroutines every kernel can call.
const kernelSubs = `
subroutine bump(x)
  integer x
  x = mod(x, 1000) + 1
end subroutine bump

subroutine halve(r)
  real r
  r = r / 2
end subroutine halve

subroutine fillseq(a, cnt, x)
  integer a(*), cnt, x
  integer k
  do k = 1, cnt
    a(k) = mod(a(k), 500) + k * 2 + mod(x, 7)
  enddo
  x = mod(x, 1000) + cnt
end subroutine fillseq

subroutine scale2(b, n, m, s)
  integer n, m, s
  real b(n, m)
  integer i, j
  do j = 1, m
    do i = 1, n
      b(i, j) = min(max(b(i, j) * 0.5 + s * 0.25 + i, -1000.0), 1000.0)
    enddo
  enddo
end subroutine scale2

subroutine findfirst(a, cnt, lim, pos)
  integer a(*), cnt, lim, pos
  integer k
  do k = 1, cnt
    if (a(k) > lim) then
      pos = k
      return
    endif
  enddo
  pos = -1
end subroutine findfirst

subroutine sumodd(a, cnt, acc)
  integer a(*), cnt, acc
  integer k
  acc = 0
  do k = 1, cnt
    if (mod(a(k), 2) == 0) then
      cycle
    endif
    if (k > cnt - 2) then
      exit
    endif
    acc = acc + mod(a(k), 100)
  enddo
end subroutine sumodd

subroutine chain(a, cnt, x)
  integer, parameter :: w = 8
  integer a(*), cnt, x
  integer t(1:w), k
  do k = 1, w
    t(k) = k * 3 - w
  enddo
  call fillseq(a(2), cnt - 1, x)
  call bump(x)
  x = x + t(w) - t(1)
end subroutine chain

subroutine byname(x, k)
  x = x / 2 + k
  k = mod(k + int(x), 1000)
end subroutine byname

subroutine leave(c, d)
  integer c, d
  if (c == d) then
    cycle
  endif
  if (c > d) then
    exit
  endif
end subroutine leave
`

// program emits the whole kernel: set-up, a first random phase filling the
// send buffer, one ALLTOALL, a second random phase reading the receive
// buffer, the calls-and-messages phase, and prints of every scalar.
func (g *kgen) program() string {
	g.sb.WriteString(`
program k
  implicit none
  include 'mpif.h'
  integer, parameter :: n = 12
  integer ia(1:n), ib(1:4, 1:3, 1:2), as(1:8), ar(1:8)
  real ra(0:n-1, 1:3)
  integer ierr, me, nz, nrt, i0, i1, i2, i3, j1, j2, j3
  integer rq(1:2), sb(1:3), rb(1:3), k1, k2, k3
  real r0, r1, r2
  logical l0, l1
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  nz = 7 - me * 2
  nrt = n - me * 5
  i0 = 3
  i1 = me + 1
  r0 = 1.5
  l1 = me == 0
  do j1 = 1, n
    ia(j1) = j1 * 3 - me
    ra(j1 - 1, 2) = j1 * 0.25
  enddo
`)
	g.free = []string{"j3", "j2", "j1"}
	g.doStmt(3)
	g.block(3)
	g.line("do j1 = 1, %d", kNS)
	g.line("  as(j1) = %s", g.intExpr(2))
	g.line("enddo")
	g.line("call mpi_alltoall(as, %d, mpi_integer, ar, %d, mpi_integer, mpi_comm_world, ierr)", kNS/2, kNS/2)
	g.line("i2 = ar(%s) + ar(%d)", g.sub(1, kNS), kNS)
	g.doStmt(3)
	g.block(3)
	g.extras()
	g.line("print *, 'ints', i0, i1, i2, i3, j1, j2, j3")
	g.line("print *, 'reals', r0, r1, r2, 'logicals', l0, l1")
	g.sb.WriteString("  call mpi_finalize(ierr)\nend program k\n" + kernelSubs)
	return g.sb.String()
}

const randomKernels = 200

// randomKernel is the i-th kernel of the seeded family.
func randomKernel(i int) string {
	g := &kgen{r: rand.New(rand.NewSource(int64(20060425 + i))), x: rand.New(rand.NewSource(int64(20261001 + i)))}
	return g.program()
}

// TestRandomKernelsBitIdentical generates small kernels from a fixed seed —
// nested DOs with constant and run-time bounds, integer/real/logical
// scalars, 1- to 3-D arrays, intrinsics, IF/ELSE, EXIT/CYCLE, by-reference
// calls, one ALLTOALL, then the calls-and-messages phase (see extras) — and
// requires walk ≡ bytecode on every observable, on both paper machines, and
// the walk arm of the replay property. The corpus is all-integer
// straight-line loop nests; this is where mixed kinds, coercing stores,
// control flow inside lowered loops, argument association and MPI argument
// evaluation get their differential coverage.
func TestRandomKernelsBitIdentical(t *testing.T) {
	count := randomKernels
	if testing.Short() {
		count = 20
	}
	for i := 0; i < count; i++ {
		src := randomKernel(i)
		label := fmt.Sprintf("kernel %d", i)
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("%s:\n%s", label, src)
				}
			}()
			requireWalkReplaysEverywhere(t, label, src, 2, plan.PaperPair())
		}()
	}
}

// sgen writes strip kernels: one innermost DO loop the bytecode tier runs
// strip-wise — straight-line integer code over private scalars, loaded and
// stored arrays — with a chosen trip count and step, optionally faulting
// at a chosen iteration.
type sgen struct {
	r       *rand.Rand
	hasT    bool // t is assigned earlier in the body
	hasU    bool
	maxPlus int // largest c for which i + c stays inside 1..sN
}

const sN = 600 // ia, ib(1:sN), ic(0:sN+1), id(1:4, 1:sN)

// sub is an in-bounds subscript for 1..sN: the loop variable (provably in
// range, so unchecked), shifted or mirrored, or a checked scatter through
// a run-time value (several lanes may hit one element: last store wins).
func (g *sgen) sub() string {
	switch g.r.Intn(6) {
	case 0:
		if g.maxPlus > 0 {
			return "i + 1"
		}
	case 1:
		return fmt.Sprintf("%d - i", sN+1)
	case 2:
		return "i + me - me"
	case 3:
		return fmt.Sprintf("mod(mod(%s, %d) + %d, %d) + 1", g.expr(1), sN, sN, sN)
	}
	return "i"
}

func (g *sgen) expr(d int) string {
	if d <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(7) {
		case 0:
			return fmt.Sprintf("(%d)", g.r.Intn(21)-4)
		case 1:
			return g.pickOf("me", "nz")
		case 2:
			if g.hasT {
				return "t"
			}
		case 3:
			if g.hasU {
				return "u"
			}
		case 4:
			return fmt.Sprintf("ib(%s)", g.sub())
		}
		return "i"
	}
	a, b := g.expr(d-1), g.expr(d-1)
	switch g.r.Intn(12) {
	case 0, 1:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 3:
		return fmt.Sprintf("(%s * %s)", a, g.pickOf("2", "3", "me", "nz", "i"))
	case 4:
		return fmt.Sprintf("(%s / %d)", a, 1+g.r.Intn(9))
	case 5:
		return fmt.Sprintf("(%s / nz)", a)
	case 6:
		return fmt.Sprintf("mod(%s, %d)", a, 2+g.r.Intn(30))
	case 7:
		return fmt.Sprintf("mod(%s, nz)", a)
	case 8:
		return fmt.Sprintf("%s(%s, %s)", g.pickOf("min", "max"), a, b)
	case 9:
		return fmt.Sprintf("(-%s)", a)
	case 10:
		return fmt.Sprintf("(mod(%s, 100) ** %d)", a, g.r.Intn(4))
	}
	return fmt.Sprintf("(%d - %s)", g.r.Intn(50), b)
}

func (g *sgen) pickOf(ss ...string) string { return ss[g.r.Intn(len(ss))] }

// Fault kinds a strip kernel can carry.
const (
	sClean = iota
	sDivZero
	sModZero
	sLoadOOB
	sStoreOOB
	sInvariantOOB // a loop-invariant subscript one past its bound: faults at iteration 0
)

// program emits the kernel: trips iterations of step over a range that
// keeps i (and i + 1) inside 1..sN, a fault of the given kind at iteration
// lane on rank 0 and lane + skew on rank 1, and prints of the DO variable
// and the private scalars after the loop.
func (g *sgen) program(trips, step, fault, lane, skew int) string {
	// i runs between first and last, either way round; the bound past the
	// end overshoots by less than one step.
	first := 1 + g.r.Intn(5)
	last := first + max(trips-1, 0)*abs(step)
	lo, hi := first, last+g.r.Intn(abs(step))
	if step < 0 {
		lo, hi = last, first-g.r.Intn(abs(step))
	}
	if trips == 0 {
		hi = lo - step
	}
	g.maxPlus = sN - last
	// at is zero exactly at the faulting iteration; hit is 1 there, else 0.
	at := fmt.Sprintf("(i - (%d + me * (%d)))", lo+lane*step, skew*step)
	hit := fmt.Sprintf("(1 - min(%s * %s, 1))", at, at)

	var body strings.Builder
	stmt := func(format string, args ...interface{}) {
		body.WriteString("    ")
		fmt.Fprintf(&body, format, args...)
		body.WriteByte('\n')
	}
	if g.r.Intn(3) > 0 {
		stmt("t = %s", g.expr(3))
		g.hasT = true
	}
	rhs := g.expr(3)
	switch fault {
	case sDivZero:
		rhs = fmt.Sprintf("%s + 100 / %s", rhs, at)
	case sModZero:
		rhs = fmt.Sprintf("%s + mod(i, %s)", rhs, at)
	case sLoadOOB:
		// One past either bound, at the faulting iteration only.
		rhs = fmt.Sprintf("%s + ib(%s)", rhs, g.pickOf("1 - "+hit, fmt.Sprintf("%d + %s", sN, hit)))
	}
	stmt("ia(%s) = %s", g.sub(), rhs)
	if g.r.Intn(3) > 0 {
		stmt("u = %s", g.expr(2))
		g.hasU = true
	}
	if fault == sStoreOOB {
		stmt("ic(%s) = %s", g.pickOf("0 - "+hit, fmt.Sprintf("%d + %s", sN+1, hit)), g.expr(2))
	} else if g.r.Intn(2) == 0 {
		stmt("ic(%s - 1) = %s", g.sub(), g.expr(2))
	}
	if fault == sInvariantOOB {
		stmt("id(%s, %s) = %s", g.pickOf("1 - nz / nz", "4 + nz / nz"), g.sub(), g.expr(2))
	} else if g.r.Intn(2) == 0 {
		stmt("id(%d, %s) = %s", 1+g.r.Intn(4), g.sub(), g.expr(2))
	}
	if g.hasT && g.hasU {
		stmt("w = t - u")
	}
	return fmt.Sprintf(`
program s
  implicit none
  include 'mpif.h'
  integer, parameter :: n = %d
  integer ia(1:n), ib(1:n), ic(0:n+1), id(1:4, 1:n)
  integer ierr, me, nz, i, t, u, w
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  nz = 7 - me * 2
  t = -1
  u = -2
  w = -3
  do i = 1, n
    ib(i) = i * 3 - me
    ia(i) = -i
  enddo
  do i = %d, %d, %d
%s  enddo
  print *, 'after', i, t, u, w
  call mpi_finalize(ierr)
end program s
`, sN, lo, hi, step, body.String())
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestStripKernels drives the strip executor through its edges: trip
// counts around the strip length, positive and negative steps, private
// scalars and the DO variable read after the loop, and a zero divisor or an
// out-of-bounds checked subscript at the first, middle and last lane of
// the first and last strips. Every kernel's loop must be strip-eligible,
// and walk ≡ bytecode on every observable — for the faulting
// ones on each rank's exact error, the virtual time of the failure, and
// everything stored before it.
func TestStripKernels(t *testing.T) {
	const L = exec.StripLen
	tripSet := []int{0, 1, L - 1, L, L + 1, 3*L + 2}
	steps := []int{1, -1, 3, -2}
	faultWant := map[int]string{
		sDivZero: "integer division by zero", sModZero: "mod by zero",
		sLoadOOB: "out of bounds", sStoreOOB: "out of bounds", sInvariantOOB: "out of bounds",
	}
	machines := plan.PaperPair()
	seed := int64(20061001)
	run := func(trips, step, fault, lane, skew int) {
		seed++
		g := &sgen{r: rand.New(rand.NewSource(seed))}
		src := g.program(trips, step, fault, lane, skew)
		label := fmt.Sprintf("trips %d step %d fault %d lane %d+%d", trips, step, fault, lane, skew)
		defer func() {
			if t.Failed() {
				t.Logf("%s:\n%s", label, src)
			}
		}()
		p, err := exec.CompileSource(src)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if why := p.Routed(); why != "" {
			t.Fatalf("%s is not lowered: %s", label, why)
		}
		if el := p.StripEligible(); len(el) != 2 || !el[0] || !el[1] {
			t.Fatalf("%s: strip-wise loops %v, want both", label, el)
		}
		m := machines[int(seed)%len(machines)]
		if fault == sClean {
			runAll(t, label, src, 2, m)
		} else {
			requireSameFailure(t, label, src, 2, m, faultWant[fault])
		}
	}
	for _, trips := range tripSet {
		for _, step := range steps {
			run(trips, step, sClean, 0, 0)
			if testing.Short() && step != 1 {
				continue
			}
			// First, middle and last lane of the first strip, of the last
			// whole strip, and of the remainder after it.
			whole := trips / L * L
			lanes := []int{0, L / 2, L - 1, whole - L, whole - 1, whole, trips - 1}
			for li, lane := range lanes {
				if lane < 0 || lane >= trips || (li > 0 && lane <= lanes[li-1]) {
					continue
				}
				for fault := sDivZero; fault <= sStoreOOB; fault++ {
					// Rank 1 faults one iteration later, or (skew past the
					// end) not at all.
					run(trips, step, fault, lane, (fault+lane)%2)
				}
				if lane == 0 {
					run(trips, step, sInvariantOOB, 0, 0)
				}
			}
		}
	}
}

// TestStripAffineEdges drives the affine forms and the remainder recurrence
// through their edges: dividends crossing zero mid-strip or all negative,
// negative DO steps, divisors the recurrence must decline (negative, above
// 2⁶²), steps above 2⁵⁶, affine lanes that wrap, the indirect family's copy
// shape, affine private scalars read after the loop, and divisors that are
// zero at run time from lane 0 or from the middle of a strip. Every loop runs
// strip-wise, and walk ≡ bytecode on every observable.
func TestStripAffineEdges(t *testing.T) {
	const decls = `  integer, parameter :: n = 8
  integer ia(1:200), ib(1:200), ic(1:n, 1:25)
  integer i, j, k, m, mbig, z, t, u, w, tx, ty`
	const init = `
  k = 5 + me
  m = 7
  mbig = 4611686018427387904 + 1
  z = 0
  t = -1
  u = -2
  w = -3
  tx = -4
  ty = -5
  do j = 1, 25
    do i = 1, n
      ic(i, j) = i * 100 + j - me
    enddo
  enddo`
	cases := []struct{ name, loop, want string }{
		{"dividend crossing zero mid-strip", `
  do i = 1, 200
    ia(i) = mod(i - 40, 7) * 1000 + (i - 40) / 7
  enddo`, ""},
		{"negative steps", `
  do i = 200, 1, -3
    ia(i) = mod(i * 5 + k, 11) - (2 * i - 1) / 13 + mod(0 - i * 3, 7) * 100
  enddo
  do i = -1, -150, -1
    ib(0 - i) = mod(i, 9) + i / 4 + mod(i * k - 1, m) * 10
  enddo`, ""},
		{"negative divisor and divisor above 2**62", `
  do i = 1, 200
    ia(i) = mod(i, -7) + i / (-7) + mod(i - 100, mbig) + (i * k) / mbig
    ib(i) = mod(i * 4611686018427387903, mbig) + mod(i * 3, 0 - m)
  enddo`, ""},
		{"step above 2**56 and wrapping lanes", `
  do i = 1, 100
    ia(i) = mod(i * 72057594037927936 + k, 1000003) + (i * 72057594037927936) / m
  enddo
  do i = 1, 200, 3
    ib(i) = mod(i * 72057594037927936, 1000003) + mod(i * 4611686018427387904 + k, 13)
  enddo
  do i = 1, 200
    ia(i) = i * 4611686018427387904 + k
  enddo`, ""},
		{"the indirect copy shape", `
  do i = 1, 200
    tx = mod(i - 1, n) + 1
    ty = (i - 1) / n + 1
    ia(i) = ic(tx, ty)
  enddo`, ""},
		{"affine private scalars read after the loop", `
  do i = 1, 150
    t = i * 3 + k
    u = -t
    w = t - 2 * u
    ia(i) = mod(w, m) + t
  enddo`, ""},
		// 63 steps of (2⁶⁴ + 47)/63 wrap to 47: both end lanes of the strip
		// are in bounds, the lanes between them are not.
		{"store subscript wrapping back in bounds at the last lane", `
  do i = 1, 64
    ia(1 + (i - 1) * 292805461487453201) = i
  enddo`, "out of bounds"},
		{"load subscript wrapping back in bounds at the last lane", `
  do i = 1, 64
    ia(i) = ib(1 + (i - 1) * 292805461487453201)
  enddo`, "out of bounds"},
		{"zero invariant divisor of mod at lane 0", `
  do i = 1, 150
    ia(i) = i * 2 + mod(i * 3 + 1, z)
  enddo`, "mod by zero"},
		{"zero invariant divisor of / at lane 0", `
  do i = 1, 150
    ia(i) = i * 2 + (i * 3 + 1) / z
  enddo`, "integer division by zero"},
		{"divisor reaching zero mid-strip", `
  do i = 1, 150
    ia(i) = i + 100 / (i - 37 - me)
  enddo`, "integer division by zero"},
		{"mod divisor reaching zero in the second strip", `
  do i = 1, 150
    ia(i) = i + mod(i * 5, i - 100 + me)
  enddo`, "mod by zero"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			src := wrap(decls, init+tc.loop+`
  print *, 'after', i, t, u, w, tx, ty`)
			p, err := exec.CompileSource(src)
			if err != nil {
				t.Fatal(err)
			}
			for li, ok := range p.StripEligible() {
				if !ok {
					t.Fatalf("innermost loop %d does not run strip-wise\n%s", li, src)
				}
			}
			for _, m := range plan.PaperPair() {
				if tc.want == "" {
					runAll(t, m.Name, src, 2, m)
				} else {
					requireSameFailure(t, m.Name, src, 2, m, tc.want)
				}
			}
		})
	}
}

// TestStripIneligibleLoops: loops the strip executor must leave to the
// scalar path — a value carried between iterations, an array both read
// and written or written twice, anything not integer, any control flow,
// call or clock read — are marked so, and still agree with the walker.
func TestStripIneligibleLoops(t *testing.T) {
	const decls = `  integer ia(1:40), ib(1:40)
  real ra(1:40)
  integer i, s, k
  real r`
	const init = `
  s = 0
  k = 1
  do i = 1, 40
    ib(i) = i * 2 - me
    ia(i) = i
  enddo`
	cases := []struct{ name, loop string }{
		{"reduction", `
    s = s + ib(i)`},
		{"scalar carried from the previous iteration", `
    ia(i) = k
    k = i * 2`},
		{"array loaded and stored", `
    ia(i) = ia(41 - i) + 1`},
		{"two stores to one array", `
    ia(i) = i
    ia(41 - i) = -i`},
		{"real array", `
    ra(i) = i * 0.5`},
		{"real scalar", `
    r = i * 0.5
    ia(i) = i`},
		{"real value into an integer array", `
    ia(i) = i * 0.5`},
		{"call", `
    k = i
    call bump(k)
    ia(i) = k`},
		{"if", `
    if (mod(i, 3) == 0) then
      ia(i) = -i
    endif`},
		{"clock read", `
    ra(i) = mpi_wtime()`},
		{"intrinsic call", `
    ia(i) = abs(ib(i) - 30)`},
		{"do variable assigned", `
    ia(i) = i
    i = i + 0`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			src := wrap(decls, init+`
  do i = 1, 40`+tc.loop+`
  enddo
  print *, 'after', i, s, k, r`)
			p, err := exec.CompileSource(src)
			if err != nil {
				t.Fatal(err)
			}
			if el := p.StripEligible(); len(el) != 2 || !el[0] || el[1] {
				t.Fatalf("strip-wise loops %v, want the set-up loop only\n%s", el, src)
			}
			for _, m := range plan.PaperPair() {
				runAll(t, m.Name, src, 2, m)
			}
		})
	}
}
