package transform_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/plan"
)

// rejectCase runs the pipeline and asserts the single site is rejected with
// a reason containing want.
func rejectCase(t *testing.T, src string, k, np int64, want string) {
	t.Helper()
	_, rep, err := transform(src, np, plan.Decision{K: k})
	if err != nil {
		t.Fatalf("pipeline error: %v", err)
	}
	if rep.TransformedCount() != 0 {
		t.Fatalf("expected rejection, got transform:\n%s", rep)
	}
	joined := ""
	for _, s := range rep.Sites {
		joined += s.Reason + "\n"
	}
	if !strings.Contains(joined, want) {
		t.Errorf("reasons %q do not contain %q", joined, want)
	}
}

func TestRejectSendcountMismatch(t *testing.T) {
	// The call exchanges only half the array: pre-pushing the whole array
	// would change semantics.
	rejectCase(t, `
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: np = 4
  integer as(1:32), ar(1:32), i, ierr
  do i = 1, 32
    as(i) = i
  enddo
  call mpi_alltoall(as, 4, mpi_integer, ar, 4, mpi_integer, mpi_comm_world, ierr)
end program p
`, 4, 0, "does not exchange the whole array")
}

func TestRejectUnknownNP(t *testing.T) {
	rejectCase(t, `
program p
  implicit none
  include 'mpif.h'
  integer as(1:32), ar(1:32), i, ierr
  do i = 1, 32
    as(i) = i
  enddo
  call mpi_alltoall(as, 8, mpi_integer, ar, 8, mpi_integer, mpi_comm_world, ierr)
end program p
`, 4, 0, "number of ranks unknown")
}

func TestRejectIndivisibleLastDim(t *testing.T) {
	rejectCase(t, `
program p
  implicit none
  include 'mpif.h'
  integer as(1:30), ar(1:30), i, ierr
  do i = 1, 30
    as(i) = i
  enddo
  call mpi_alltoall(as, 6, mpi_integer, ar, 6, mpi_integer, mpi_comm_world, ierr)
end program p
`, 3, 4, "not divisible")
}

func TestRejectStridedSubscript(t *testing.T) {
	// as(2*i) leaves gaps; the prototype requires coefficients in {0,1}.
	rejectCase(t, `
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: np = 4
  integer as(1:32), ar(1:32), i, ierr
  do i = 1, 16
    as(2*i) = i
  enddo
  call mpi_alltoall(as, 8, mpi_integer, ar, 8, mpi_integer, mpi_comm_world, ierr)
end program p
`, 4, 0, "coefficient")
}

func TestRejectPartialCoverage(t *testing.T) {
	// The loop writes only half of as: it does not finalize the array.
	rejectCase(t, `
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: np = 4
  integer as(1:32), ar(1:32), i, ierr
  do i = 1, 16
    as(i) = i
  enddo
  call mpi_alltoall(as, 8, mpi_integer, ar, 8, mpi_integer, mpi_comm_world, ierr)
end program p
`, 4, 0, "finalize")
}

func TestRejectScalarBuffer(t *testing.T) {
	rejectCase(t, `
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: np = 4
  integer as, ar(1:4), i, ierr
  do i = 1, 4
    as = i
  enddo
  call mpi_alltoall(as, 1, mpi_integer, ar, 1, mpi_integer, mpi_comm_world, ierr)
end program p
`, 1, 0, "not a declared array")
}

func TestRejectWrongArgCount(t *testing.T) {
	rejectCase(t, `
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: np = 4
  integer as(1:8), ar(1:8), i, ierr
  do i = 1, 8
    as(i) = i
  enddo
  call mpi_alltoall(as, 2, mpi_integer, ar, 2, mpi_integer, mpi_comm_world)
end program p
`, 2, 0, "8")
}

func TestRejectIndirectExtraStatement(t *testing.T) {
	// A copy loop with a statement that is not a scalar assignment or the
	// copy itself cannot be removed safely.
	rejectCase(t, `
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: n = 4
  integer, parameter :: np = 4
  integer as(1:n, 1:n, 1:n)
  integer ar(1:n, 1:n, 1:n)
  integer at(1:16)
  integer other(1:16)
  integer iy, ix, tx, ty, ierr

  do iy = 1, n
    call p2(iy, at)
    do ix = 1, 16
      tx = mod(ix - 1, n) + 1
      ty = (ix - 1)/n + 1
      other(ix) = at(ix)
      as(tx, ty, iy) = at(ix)
    enddo
  enddo
  call mpi_alltoall(as, 16, mpi_integer, ar, 16, mpi_integer, mpi_comm_world, ierr)
end program p

subroutine p2(iy, at)
  integer iy
  integer at(*)
  at(1) = iy
end subroutine p2
`, 1, 0, "extra array assignment")
}

func TestRejectIndirectNoFillCall(t *testing.T) {
	rejectCase(t, `
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: n = 4
  integer, parameter :: np = 4
  integer as(1:n, 1:n, 1:n)
  integer ar(1:n, 1:n, 1:n)
  integer at(1:16)
  integer iy, ix, tx, ty, ierr

  do iy = 1, n
    do ix = 1, 16
      tx = mod(ix - 1, n) + 1
      ty = (ix - 1)/n + 1
      as(tx, ty, iy) = at(ix)
    enddo
  enddo
  call mpi_alltoall(as, 16, mpi_integer, ar, 16, mpi_integer, mpi_comm_world, ierr)
end program p
`, 1, 0, "no call filling")
}

func TestRejectKZero(t *testing.T) {
	src := `
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: np = 4
  integer as(1:32), ar(1:32), i, ierr
  do i = 1, 32
    as(i) = i
  enddo
  call mpi_alltoall(as, 8, mpi_integer, ar, 8, mpi_integer, mpi_comm_world, ierr)
end program p
`
	// The transform itself must reject K<=0 when called directly. In a
	// plan, K=0 means "default" (plan.DefaultK), so this must succeed.
	_, rep, err := transform(src, 0, plan.Decision{K: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		t.Fatalf("K=0 should use the default tile size:\n%s", rep)
	}
}

func TestNPOptionOverridesParameter(t *testing.T) {
	// No 'np' constant in the program; AnalyzeOptions.NP supplies it.
	src := `
program p
  implicit none
  include 'mpif.h'
  integer as(1:32), ar(1:32), i, ierr
  do i = 1, 32
    as(i) = i*5
  enddo
  call mpi_alltoall(as, 8, mpi_integer, ar, 8, mpi_integer, mpi_comm_world, ierr)
end program p
`
	_, rep, err := transform(src, 4, plan.Decision{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		t.Fatalf("NP option not honored:\n%s", rep)
	}
}

func TestPerTileWaitGolden(t *testing.T) {
	src := `
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: np = 4
  integer as(1:32), ar(1:32), i, ierr
  do i = 1, 32
    as(i) = i
  enddo
  call mpi_alltoall(as, 8, mpi_integer, ar, 8, mpi_integer, mpi_comm_world, ierr)
end program p
`
	perTile, _, err := transform(src, 0, plan.Decision{K: 4, Wait: plan.WaitPerTile})
	if err != nil {
		t.Fatal(err)
	}
	deferred, _, err := transform(src, 0, plan.Decision{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The per-tile variant waits inside the tile guard (before the sends);
	// the deferred variant's only waitall is the drain after the loop.
	if strings.Count(perTile, "call mpi_waitall") != 2 {
		t.Errorf("per-tile variant should have 2 waitall sites:\n%s", perTile)
	}
	if strings.Count(deferred, "call mpi_waitall") != 1 {
		t.Errorf("deferred variant should have 1 waitall site:\n%s", deferred)
	}
	// Request arrays: per-tile reuses np slots; the deferred (staggered)
	// schedule sizes for a whole execution: 2·(np-1)·(psz/K) = 2·3·2.
	if !strings.Contains(perTile, "cc_reqs(1:4)") {
		t.Error("per-tile request array should be np-sized")
	}
	if !strings.Contains(deferred, "cc_reqs(1:12)") {
		t.Errorf("deferred request array should be sized for all sends and receives:\n%s", deferred)
	}
	// The per-tile (paper-literal) variant keeps the owner-ordered schedule;
	// the deferred variant staggers the partition traversal by rank.
	if strings.Contains(perTile, "cc_po") {
		t.Error("per-tile variant should not use the staggered traversal")
	}
	if !strings.Contains(deferred, "cc_to = mod(cc_me + cc_po, cc_np)") {
		t.Errorf("deferred variant should use the staggered traversal:\n%s", deferred)
	}
}

// slabSrc is the Fig. 3(a) copy-loop shape with five places to break the
// whole-slab mapping: the copy loop's upper bound, the first and third
// subscripts, the expression defining tx, and the extent of As's last
// dimension.
func slabSrc(cpHi, sub1, sub3, tx, lastExt string) string {
	return `
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: n = 4
  integer, parameter :: np = 4
  integer as(1:n, 1:n, 1:` + lastExt + `)
  integer ar(1:n, 1:n, 1:` + lastExt + `)
  integer at(1:16)
  integer iy, ix, tx, ty, ierr

  do iy = 1, n
    call p2(iy, at)
    do ix = 1, ` + cpHi + `
      tx = ` + tx + `
      ty = (ix - 1)/n + 1
      as(` + sub1 + `, ty, ` + sub3 + `) = at(ix)
    enddo
  enddo
  call mpi_alltoall(as, 16, mpi_integer, ar, 16, mpi_integer, mpi_comm_world, ierr)
end program p

subroutine p2(iy, at)
  integer iy
  integer at(*)
  at(1) = iy
end subroutine p2
`
}

// TestRejectSlabMapping pins the §3.4 check's rejections word for word. Each
// one-element defect below exists at exactly one (iy, ix), so a check that
// skipped an element it must visit would accept the program or report a
// different reason. A rotated element is a defect in tx, a code that reads
// both ix and iy, so its program takes the full walk; a defect in the third
// subscript reads iy alone and is found at the first element of its slab.
// internal/analysis holds the same shapes to the exhaustive enumeration.
func TestRejectSlabMapping(t *testing.T) {
	const txOK = "mod(ix - 1, n) + 1"
	if _, rep, err := transform(slabSrc("16", "tx", "iy", txOK, "n"), 0, plan.Decision{K: 1}); err != nil || rep.TransformedCount() != 1 {
		t.Fatalf("the unbroken shape must transform: err=%v\n%s", err, rep)
	}
	reject := func(name, src, want string) {
		t.Run(name, func(t *testing.T) {
			_, rep, err := transform(src, 0, plan.Decision{K: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Sites) != 1 || rep.Sites[0].Transformed || rep.Sites[0].Reason != want {
				t.Errorf("got\n%s\nwant the site rejected with exactly %q", rep, want)
			}
		})
	}
	reject("trip count varies at the last outer iteration", slabSrc("16 - iy/n", "tx", "iy", txOK, "n"),
		"copy loop trip count varies across outer iterations (16 vs 15)")
	reject("subscript out of bounds at the last outer iteration", slabSrc("16", "tx - iy/n", "iy", txOK, "n"),
		"As subscript 1 out of bounds (0 not in 1:4)")
	reject("slabs do not tile As", slabSrc("16", "tx", "iy", txOK, "n + 1"),
		"slabs cover 64 elements but as has 80")
	reject("plane off at one later slab", slabSrc("16", "tx", "iy - (iy/3)*(3/iy)", txOK, "n"),
		"copy mapping is not a whole-slab mapping: at iy=3, ix=1 the element lands at offset 16, want 32")
	reject("plane out of bounds at the last slab", slabSrc("16", "tx", "iy + (iy/4)*(4/iy)", txOK, "n"),
		"As subscript 3 out of bounds (5 not in 1:4)")
	// One rotated element at (iy, ix) = (k, j): (iy/k)*(k/iy) is 1 only at
	// iy = k, likewise for ix.
	for k := int64(1); k <= 4; k++ {
		for _, j := range []int64{1, 7, 16} {
			at := "(iy/" + itoa(k) + ")*(" + itoa(k) + "/iy)*(ix/" + itoa(j) + ")*(" + itoa(j) + "/ix)"
			want := (k-1)*16 + (j - 1)
			got := (k-1)*16 + (j-1)/4*4 + j%4
			reject("one element off at iy="+itoa(k)+", ix="+itoa(j), slabSrc("16", "tx", "iy", "mod(ix - 1 + "+at+", n) + 1", "n"),
				"copy mapping is not a whole-slab mapping: at iy="+itoa(k)+", ix="+itoa(j)+
					" the element lands at offset "+itoa(got)+", want "+itoa(want))
		}
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }
