package transform_test

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/netsim"
	"repro/internal/plan"
)

// staggerKernel renders a 1-D subset-send kernel with the given loop body
// statements (written to as(ix) over ix = 1..32, np = 4, K = 4).
func staggerKernel(body string) string {
	return `
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: nx = 32
  integer, parameter :: np = 4
  integer as(1:nx)
  integer ar(1:nx)
  integer b(1:64)
  integer ix, ierr, s, t, checksum

  call mpi_init(ierr)
  s = 5
  do ix = 1, nx
` + body + `
  enddo
  call mpi_alltoall(as, nx/np, mpi_integer, ar, nx/np, mpi_integer, mpi_comm_world, ierr)
  checksum = ar(1) + ar(nx/2) + ar(nx)
  print *, 'checksum', checksum, s
  call mpi_finalize(ierr)
end program p
`
}

// differentialIdentical transforms src and asserts bit-identical observable
// results against the original under both profiles.
func differentialIdentical(t *testing.T, src, transformed string) {
	t.Helper()
	for _, prof := range []netsim.Profile{netsim.MPICHTCP(), netsim.MPICHGM()} {
		var results [2]*interp.Result
		for vi, text := range []string{src, transformed} {
			prog, err := interp.Load(text)
			if err != nil {
				t.Fatalf("load variant %d: %v", vi, err)
			}
			res, err := prog.Run(4, prof)
			if err != nil {
				t.Fatalf("run variant %d under %s: %v\n%s", vi, prof.Name, err, text)
			}
			results[vi] = res
		}
		if same, why := interp.SameObservable(results[0], results[1], "ar"); !same {
			t.Fatalf("mismatch under %s: %s\n%s", prof.Name, why, transformed)
		}
	}
}

// TestStaggeredScheduleApplied: an order-independent subset-send kernel gets
// the staggered traversal (ring partition order, pre-posted receives) and
// stays bit-identical.
func TestStaggeredScheduleApplied(t *testing.T) {
	src := staggerKernel("    as(ix) = ix*3 + 1")
	out, rep, err := transform(src, 0, plan.Decision{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		t.Fatalf("did not transform:\n%s", rep)
	}
	if !rep.Sites[0].Result.Staggered {
		t.Fatalf("expected the staggered schedule:\n%s", rep)
	}
	for _, want := range []string{
		"cc_to = mod(cc_me + cc_po, cc_np)",
		"! pre-post all receives for this rank's partition (staggered schedule)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	differentialIdentical(t, src, out)
}

// TestStaggerFallsBackOnCarriedScalar: a scalar carried across iterations
// makes the iteration order observable; the transformation must keep the
// original owner-ordered schedule — and remain correct.
func TestStaggerFallsBackOnCarriedScalar(t *testing.T) {
	src := staggerKernel("    s = s + ix\n    as(ix) = ix*2 + s")
	out, rep, err := transform(src, 0, plan.Decision{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		t.Fatalf("did not transform:\n%s", rep)
	}
	if rep.Sites[0].Result.Staggered {
		t.Fatal("staggered schedule applied despite a carried scalar")
	}
	if strings.Contains(out, "cc_po") {
		t.Errorf("staggered traversal leaked into the fallback:\n%s", out)
	}
	differentialIdentical(t, src, out)
}

// TestStaggerFallsBackOnCarriedArrayDep: a flow dependence carried by the
// tiled loop through another array also disables the reordering.
func TestStaggerFallsBackOnCarriedArrayDep(t *testing.T) {
	src := staggerKernel("    b(ix + 1) = ix*5\n    as(ix) = b(ix) + ix")
	out, rep, err := transform(src, 0, plan.Decision{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		t.Fatalf("did not transform:\n%s", rep)
	}
	if rep.Sites[0].Result.Staggered {
		t.Fatal("staggered schedule applied despite a carried array dependence")
	}
	differentialIdentical(t, src, out)
}

// TestStaggerFallsBackOnPrint: PRINT inside ℓ pins the iteration order (the
// per-rank output lines would be permuted otherwise).
func TestStaggerFallsBackOnPrint(t *testing.T) {
	src := staggerKernel("    as(ix) = ix*3\n    print *, ix")
	_, rep, err := transform(src, 0, plan.Decision{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() == 1 && rep.Sites[0].Result.Staggered {
		t.Fatal("staggered schedule applied despite a PRINT in the loop")
	}
}

// postLoopKernel is staggerKernel with an extra statement between the
// ALLTOALL and the final print (a post-loop observer of tail values).
func postLoopKernel(body, after string) string {
	src := staggerKernel(body)
	return strings.Replace(src,
		"  checksum = ar(1) + ar(nx/2) + ar(nx)",
		"  checksum = ar(1) + ar(nx/2) + ar(nx)\n"+after, 1)
}

// TestStaggerFallsBackOnPostLoopVarRead: the staggered traversal leaves the
// tiled loop variable at a rank-dependent value, so a post-loop read of it
// must disable the reordering (and the fallback must stay bit-identical).
func TestStaggerFallsBackOnPostLoopVarRead(t *testing.T) {
	src := postLoopKernel("    as(ix) = ix*3 + 1", "  checksum = checksum + ix*7")
	out, rep, err := transform(src, 0, plan.Decision{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		t.Fatalf("did not transform:\n%s", rep)
	}
	if rep.Sites[0].Result.Staggered {
		t.Fatal("staggered schedule applied despite a post-loop read of the loop variable")
	}
	differentialIdentical(t, src, out)
}

// TestStaggerFallsBackOnPostLoopScalarRead: same for a scalar the loop body
// assigns — its final value depends on the traversal order.
func TestStaggerFallsBackOnPostLoopScalarRead(t *testing.T) {
	src := postLoopKernel("    t = ix*2\n    as(ix) = t + ix", "  checksum = checksum + t")
	out, rep, err := transform(src, 0, plan.Decision{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		t.Fatalf("did not transform:\n%s", rep)
	}
	if rep.Sites[0].Result.Staggered {
		t.Fatal("staggered schedule applied despite a post-loop read of a body scalar")
	}
	differentialIdentical(t, src, out)
}

// TestStaggerFallsBackOnCycledScalarRead: ℓ nested in an outer loop whose
// body kills a scalar BEFORE ℓ but reads it after ℓ in the same iteration —
// the kill has not re-executed at the read, so the read observes ℓ's
// rank-dependent final value and the stagger must be disabled.
func TestStaggerFallsBackOnCycledScalarRead(t *testing.T) {
	src := `
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: nx = 32
  integer, parameter :: np = 4
  integer as(1:nx)
  integer ar(1:nx)
  integer ix, iy, ierr, t, checksum

  call mpi_init(ierr)
  checksum = 0
  do iy = 1, 2
    t = 0
    do ix = 1, nx
      t = ix*2
      as(ix) = t + ix + iy
    enddo
    call mpi_alltoall(as, nx/np, mpi_integer, ar, nx/np, mpi_integer, mpi_comm_world, ierr)
    checksum = checksum + t + ar(1)
  enddo
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program p
`
	out, rep, err := transform(src, 0, plan.Decision{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		t.Fatalf("did not transform:\n%s", rep)
	}
	if rep.Sites[0].Result.Staggered {
		t.Fatal("staggered schedule applied despite a cycled post-loop scalar read")
	}
	differentialIdentical(t, src, out)
}

// TestStaggerSurvivesLoopVarReuse: another DO reusing the tiled variable as
// its own loop variable redefines it, so the staggered schedule stays legal.
func TestStaggerSurvivesLoopVarReuse(t *testing.T) {
	src := postLoopKernel("    as(ix) = ix*3 + 1",
		"  do ix = 1, nx\n    checksum = checksum + ar(ix)\n  enddo")
	out, rep, err := transform(src, 0, plan.Decision{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		t.Fatalf("did not transform:\n%s", rep)
	}
	if !rep.Sites[0].Result.Staggered {
		t.Fatalf("loop-variable reuse should not disable the stagger:\n%s", rep)
	}
	differentialIdentical(t, src, out)
}

// TestStaggerPreTileWaitKeepsOwnerOrder: the paper-literal per-tile wait
// mode must keep the original owner-ordered schedule.
func TestStaggerPerTileWaitKeepsOwnerOrder(t *testing.T) {
	src := staggerKernel("    as(ix) = ix*3 + 1")
	out, rep, err := transform(src, 0, plan.Decision{K: 4, Wait: plan.WaitPerTile})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		t.Fatalf("did not transform:\n%s", rep)
	}
	if rep.Sites[0].Result.Staggered || strings.Contains(out, "cc_po") {
		t.Error("per-tile wait mode must not stagger")
	}
	differentialIdentical(t, src, out)
}
