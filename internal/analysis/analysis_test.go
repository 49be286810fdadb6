package analysis

import (
	"strings"
	"testing"

	"repro/internal/ftn"
)

// directSrc is the paper's Fig. 2(a) shape: 1-D As, inner computation loop,
// ALLTOALL inside an outer iteration loop.
const directSrc = `
program direct
  implicit none
  include 'mpif.h'
  integer, parameter :: nx = 64
  integer, parameter :: np = 8
  integer as(1:nx)
  integer ar(1:nx)
  integer ix, iy, ierr, me, nprocs

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  call mpi_comm_size(mpi_comm_world, nprocs, ierr)
  do iy = 1, nx
    do ix = 1, nx
      as(ix) = ix + iy + me
    enddo
    call mpi_alltoall(as, nx/np, mpi_integer, ar, nx/np, mpi_integer, mpi_comm_world, ierr)
  enddo
  call mpi_finalize(ierr)
end program direct
`

// nodeInnerSrc has a 2-D As whose last dimension is traversed by the inner
// loop: the Fig. 4 all-peers case.
const nodeInnerSrc = `
program inner
  implicit none
  integer, parameter :: ny = 16
  integer, parameter :: sz = 8
  integer as(1:ny, 1:sz)
  integer ar(1:ny, 1:sz)
  integer iy, inode, ierr

  do iy = 1, ny
    do inode = 1, sz
      as(iy, inode) = iy*100 + inode
    enddo
  enddo
  call mpi_alltoall(as, ny*sz/4, mpi_integer, ar, ny*sz/4, mpi_integer, mpi_comm_world, ierr)
end program inner
`

// indirectSrc is the paper's Fig. 3(a) shape, with well-defined 1-based
// index arithmetic.
const indirectSrc = `
program indirect
  implicit none
  integer, parameter :: n = 4
  integer as(1:n, 1:n, 1:n)
  integer ar(1:n, 1:n, 1:n)
  integer at(1:16)
  integer iy, ix, tx, ty, ierr

  do iy = 1, n
    call p(iy, at)
    do ix = 1, 16
      tx = mod(ix - 1, n) + 1
      ty = (ix - 1)/n + 1
      as(tx, ty, iy) = at(ix)
    enddo
  enddo
  call mpi_alltoall(as, 16, mpi_integer, ar, 16, mpi_integer, mpi_comm_world, ierr)
end program indirect

subroutine p(iy, at)
  integer iy
  integer at(*)
  integer i
  do i = 1, 16
    at(i) = i*1000 + iy
  enddo
end subroutine p
`

func findOps(t *testing.T, src string, opts Options) ([]*Opportunity, []error) {
	t.Helper()
	f, err := ftn.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return FindOpportunities(f, opts)
}

func TestFindDirectOpportunity(t *testing.T) {
	ops, errs := findOps(t, directSrc, Options{})
	if len(errs) > 0 {
		t.Fatalf("unexpected rejections: %v", errs)
	}
	if len(ops) != 1 {
		t.Fatalf("opportunities = %d, want 1", len(ops))
	}
	op := ops[0]
	if op.Pattern != PatternDirect {
		t.Errorf("pattern = %v, want direct", op.Pattern)
	}
	if op.Call.As != "as" || op.Call.Ar != "ar" {
		t.Errorf("As/Ar = %s/%s", op.Call.As, op.Call.Ar)
	}
	if op.L == nil || op.L.Var != "ix" {
		t.Fatalf("ℓ should be the inner ix loop, got %+v", op.L)
	}
	if len(op.SafeRefs) != 1 {
		t.Errorf("safe refs = %d, want 1", len(op.SafeRefs))
	}
	if op.NodeCase != NodeLoopOutermost {
		t.Errorf("node case = %v, want outermost (1-D As)", op.NodeCase)
	}
	if op.InterchangeOK {
		t.Error("no inner loop to interchange with")
	}
	if op.Consts["nx"] != 64 || op.Consts["np"] != 8 {
		t.Errorf("consts = %v", op.Consts)
	}
}

func TestFindNodeLoopInner(t *testing.T) {
	ops, errs := findOps(t, nodeInnerSrc, Options{})
	if len(errs) > 0 {
		t.Fatalf("unexpected rejections: %v", errs)
	}
	if len(ops) != 1 {
		t.Fatalf("opportunities = %d, want 1", len(ops))
	}
	op := ops[0]
	if op.Pattern != PatternDirect {
		t.Errorf("pattern = %v", op.Pattern)
	}
	if op.NodeCase != NodeLoopInner {
		t.Errorf("node case = %v, want inner", op.NodeCase)
	}
	if op.NodeLoopLevel != 1 {
		t.Errorf("node level = %d, want 1", op.NodeLoopLevel)
	}
}

func TestFindIndirectOpportunity(t *testing.T) {
	ops, errs := findOps(t, indirectSrc, Options{})
	if len(errs) > 0 {
		t.Fatalf("unexpected rejections: %v", errs)
	}
	if len(ops) != 1 {
		t.Fatalf("opportunities = %d, want 1", len(ops))
	}
	op := ops[0]
	if op.Pattern != PatternIndirect {
		t.Fatalf("pattern = %v, want indirect", op.Pattern)
	}
	cl := op.CopyLoop
	if cl == nil {
		t.Fatal("no copy loop recognized")
	}
	if cl.At != "at" {
		t.Errorf("At = %q", cl.At)
	}
	if cl.Count != 16 {
		t.Errorf("Count = %d, want 16", cl.Count)
	}
	if cl.Call == nil || cl.Call.Name != "p" {
		t.Errorf("fill call = %+v", cl.Call)
	}
	if cl.CallArgPos != 1 {
		t.Errorf("call arg pos = %d, want 1", cl.CallArgPos)
	}
	if op.NodeCase != NodeLoopOutermost {
		t.Errorf("node case = %v", op.NodeCase)
	}
}

func TestRejectBadSlabMapping(t *testing.T) {
	// Transposed copy: element order within the slab is permuted in a way
	// that is NOT the identity linearization (row-major traversal of a
	// column-major array), so the whole-slab check must fail.
	src := `
program bad
  implicit none
  integer, parameter :: n = 4
  integer as(1:n, 1:n, 1:n)
  integer ar(1:n, 1:n, 1:n)
  integer at(1:16)
  integer iy, ix, tx, ty, ierr

  do iy = 1, n
    call p(iy, at)
    do ix = 1, 16
      tx = (ix - 1)/n + 1
      ty = mod(ix - 1, n) + 1
      as(tx, ty, iy) = at(ix)
    enddo
  enddo
  call mpi_alltoall(as, 16, mpi_integer, ar, 16, mpi_integer, mpi_comm_world, ierr)
end program bad

subroutine p(iy, at)
  integer iy
  integer at(*)
  at(1) = iy
end subroutine p
`
	ops, errs := findOps(t, src, Options{})
	if len(ops) != 0 {
		t.Fatalf("transposed copy should be rejected, got %d ops", len(ops))
	}
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "whole-slab") {
		t.Errorf("errors = %v, want whole-slab rejection", errs)
	}
}

func TestRejectConditionalAlltoall(t *testing.T) {
	src := `
program p
  integer as(1:8), ar(1:8), i, ierr
  do i = 1, 8
    as(i) = i
  enddo
  if (i > 0) then
    call mpi_alltoall(as, 1, mpi_integer, ar, 1, mpi_integer, mpi_comm_world, ierr)
  endif
end program p
`
	ops, errs := findOps(t, src, Options{})
	if len(ops) != 0 {
		t.Fatal("conditional call should be rejected")
	}
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "conditional") {
		t.Errorf("errors = %v", errs)
	}
}

func TestRejectConditionalWrite(t *testing.T) {
	src := `
program p
  integer as(1:8), ar(1:8), i, ierr
  do i = 1, 8
    if (i > 4) then
      as(i) = i
    else
      as(i) = -i
    endif
  enddo
  call mpi_alltoall(as, 1, mpi_integer, ar, 1, mpi_integer, mpi_comm_world, ierr)
end program p
`
	ops, errs := findOps(t, src, Options{})
	if len(ops) != 0 {
		t.Fatal("conditional write should be rejected")
	}
	joined := ""
	for _, e := range errs {
		joined += e.Error()
	}
	if !strings.Contains(joined, "conditional write") && !strings.Contains(joined, "no writes") {
		t.Errorf("errors = %v", errs)
	}
}

func TestRejectArUsedBeforeCall(t *testing.T) {
	src := `
program p
  integer as(1:8), ar(1:8), i, x, ierr
  do i = 1, 8
    as(i) = i
  enddo
  x = ar(3)
  call mpi_alltoall(as, 1, mpi_integer, ar, 1, mpi_integer, mpi_comm_world, ierr)
end program p
`
	ops, errs := findOps(t, src, Options{})
	if len(ops) != 0 {
		t.Fatal("early Ar use should be rejected")
	}
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "used before") {
		t.Errorf("errors = %v", errs)
	}
}

func TestRejectUnsafeOverwrites(t *testing.T) {
	// Every element is written twice: no safe references.
	src := `
program p
  integer as(1:8), ar(1:8), i, j, ierr
  do j = 1, 2
    do i = 1, 8
      as(i) = i*j
    enddo
  enddo
  call mpi_alltoall(as, 1, mpi_integer, ar, 1, mpi_integer, mpi_comm_world, ierr)
end program p
`
	ops, errs := findOps(t, src, Options{})
	if len(ops) != 0 {
		t.Fatal("overwriting nest should be rejected")
	}
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "safe") {
		t.Errorf("errors = %v", errs)
	}
}

func TestOracleSemiAutomatic(t *testing.T) {
	// The mutating call's source is not in the file; with two candidate
	// loops, the site is transformable only when the oracle answers.
	src := `
program p
  integer as(1:8), ar(1:8), other(1:8), i, ierr
  do i = 1, 8
    other(i) = i
  enddo
  do i = 1, 8
    call fill(as, i)
  enddo
  call mpi_alltoall(as, 1, mpi_integer, ar, 1, mpi_integer, mpi_comm_world, ierr)
end program p
`
	// Without an oracle: the fill loop cannot be decided, the other loop
	// does not mutate as -> no opportunity.
	ops, _ := findOps(t, src, Options{})
	if len(ops) != 0 {
		t.Fatal("without oracle this site must be rejected")
	}
	// With an oracle saying fill writes as, ℓ is found; pattern analysis
	// then rejects (call-only mutation), but the semi-automatic flag and
	// the ℓ discovery are exercised.
	f, err := ftn.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, errs := FindOpportunities(f, Options{Oracle: MapOracle{"fill:as": true}})
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "procedure calls") {
		t.Errorf("want call-only rejection, got %v", errs)
	}
}

func TestConservativeOnlyLoopAssumption(t *testing.T) {
	// A single candidate loop whose mutation status is unknown is assumed
	// to be the mutator (paper §3.1), then rejected at pattern stage.
	src := `
program p
  integer as(1:8), ar(1:8), i, ierr
  do i = 1, 8
    call fill(as, i)
  enddo
  call mpi_alltoall(as, 1, mpi_integer, ar, 1, mpi_integer, mpi_comm_world, ierr)
end program p
`
	_, errs := findOps(t, src, Options{})
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "procedure calls") {
		t.Errorf("want conservative ℓ found then call-only rejection, got %v", errs)
	}
}

func TestInterchangeDetection(t *testing.T) {
	// Node loop (last dim of as) is the OUTER loop, but interchange with
	// the inner loop is legal (fully independent writes).
	src := `
program p
  implicit none
  integer, parameter :: n = 8
  integer as(1:n, 1:n)
  integer ar(1:n, 1:n)
  integer i, j, ierr
  do j = 1, n
    do i = 1, n
      as(i, j) = i + j*10
    enddo
  enddo
  call mpi_alltoall(as, n*n/4, mpi_integer, ar, n*n/4, mpi_integer, mpi_comm_world, ierr)
end program p
`
	ops, errs := findOps(t, src, Options{})
	if len(errs) > 0 {
		t.Fatalf("rejections: %v", errs)
	}
	if len(ops) != 1 {
		t.Fatalf("ops = %d", len(ops))
	}
	op := ops[0]
	if op.NodeCase != NodeLoopOutermost {
		t.Fatalf("node case = %v, want outermost", op.NodeCase)
	}
	if !op.InterchangeOK || op.InterchangeWith != 1 {
		t.Errorf("interchange = %v with %d, want true with 1", op.InterchangeOK, op.InterchangeWith)
	}
}

func TestEvalInt(t *testing.T) {
	env := map[string]int64{"n": 10}
	cases := []struct {
		src  string
		want int64
		ok   bool
	}{
		{"1 + 2*3", 7, true},
		{"mod(7, 3)", 1, true},
		{"(n - 1)/4 + 1", 3, true},
		{"-n", -10, true},
		{"2**5", 32, true},
		{"min(3, n)", 3, true},
		{"max(3, n)", 10, true},
		{"abs(3 - n)", 7, true},
		{"m + 1", 0, false},
		{"7/0", 0, false},
	}
	for _, c := range cases {
		f := ftn.MustParse("program p\nx = " + c.src + "\nend program p\n")
		e := f.Program().Body[0].(*ftn.AssignStmt).RHS
		got, ok := EvalInt(e, env)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("EvalInt(%q) = %d,%v want %d,%v", c.src, got, ok, c.want, c.ok)
		}
	}
}

// TestRejectEmptySlabs: a loop that never runs covers no element of As, so
// the slabs do not tile it. The covered count is max(0, outer trips) ×
// max(0, copy trips); a zero-trip loop once proved the mapping with
// Count = -1 or reported a negative cover.
func TestRejectEmptySlabs(t *testing.T) {
	src := func(outer, copyLoop string) string {
		return `
program empty
  implicit none
  include 'mpif.h'
  integer, parameter :: np = 2
  integer as(1:2, 1:2, 1:2)
  integer ar(1:2, 1:2, 1:2)
  integer at(1:4)
  integer iy, ix, tx, ty, ierr

  do iy = ` + outer + `
    call p(iy, at)
    do ix = ` + copyLoop + `
      tx = mod(ix - 1, 2) + 1
      ty = (ix - 1)/2 + 1
      as(tx, ty, iy) = at(ix)
    enddo
  enddo
  call mpi_alltoall(as, 4, mpi_integer, ar, 4, mpi_integer, mpi_comm_world, ierr)
end program empty

subroutine p(iy, at)
  integer iy
  integer at(*)
  at(1) = iy
end subroutine p
`
	}
	const want = "slabs cover 0 elements but as has 8"
	for _, c := range []struct{ name, outer, copyLoop string }{
		{"zero-trip outer loop", "10, 1", "1, 4"},
		{"outer loop three short", "3, 1", "1, 4"},
		{"zero-trip copy loop", "1, 2", "5, 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ops, errs := findOps(t, src(c.outer, c.copyLoop), Options{})
			if len(ops) != 0 {
				t.Fatalf("accepted with Count = %d, notes %q", ops[0].CopyLoop.Count, ops[0].Notes)
			}
			if len(errs) != 1 || !strings.Contains(errs[0].Error(), want) {
				t.Errorf("errors = %v, want %q", errs, want)
			}
		})
	}
	// The unbroken shape still proves, with two slabs of four elements.
	ops, errs := findOps(t, src("1, 2", "1, 4"), Options{})
	if len(ops) != 1 || ops[0].CopyLoop.Count != 4 {
		t.Fatalf("ops = %d, errs = %v", len(ops), errs)
	}
}
