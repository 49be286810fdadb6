package transform_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/netsim"
	"repro/internal/plan"
)

// directOutermostSrc is the paper's Fig. 2(a) program made concrete.
const directOutermostSrc = `
program direct
  implicit none
  include 'mpif.h'
  integer, parameter :: nx = 64
  integer, parameter :: np = 8
  integer as(1:nx)
  integer ar(1:nx)
  integer ix, iy, ierr, checksum

  call mpi_init(ierr)
  checksum = 0
  do iy = 1, 4
    do ix = 1, nx
      as(ix) = ix*3 + iy*7
    enddo
    call mpi_alltoall(as, nx/np, mpi_integer, ar, nx/np, mpi_integer, mpi_comm_world, ierr)
    do ix = 1, nx
      checksum = checksum + ar(ix)*ix
    enddo
  enddo
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program direct
`

// directInnerSrc has a 2-D As whose last dimension is walked by the inner
// loop: the Fig. 4 all-peers case. The iy loop writes rows.
const directInnerSrc = `
program inner
  implicit none
  include 'mpif.h'
  integer, parameter :: ny = 24
  integer, parameter :: sz = 8
  integer, parameter :: np = 4
  integer as(1:ny, 1:sz)
  integer ar(1:ny, 1:sz)
  integer iy, inode, ierr, me, checksum

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do iy = 1, ny
    do inode = 1, sz
      as(iy, inode) = me + iy*100 + inode*17
    enddo
  enddo
  call mpi_alltoall(as, ny*sz/np, mpi_integer, ar, ny*sz/np, mpi_integer, mpi_comm_world, ierr)
  checksum = 0
  do iy = 1, ny
    do inode = 1, sz
      checksum = checksum + ar(iy, inode)*(iy + inode)
    enddo
  enddo
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program inner
`

// interchangeSrc has the node loop outermost but interchangeable.
const interchangeSrc = `
program swap
  implicit none
  include 'mpif.h'
  integer, parameter :: n = 16
  integer, parameter :: np = 4
  integer as(1:n, 1:n)
  integer ar(1:n, 1:n)
  integer i, j, ierr, me, checksum

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do j = 1, n
    do i = 1, n
      as(i, j) = me*3 + i + j*10
    enddo
  enddo
  call mpi_alltoall(as, n*n/np, mpi_integer, ar, n*n/np, mpi_integer, mpi_comm_world, ierr)
  checksum = 0
  do j = 1, n
    do i = 1, n
      checksum = checksum + ar(i, j)*i - ar(i, j)*j
    enddo
  enddo
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program swap
`

// indirectSrc is the paper's Fig. 3(a) shape (the evaluation's test
// program pattern).
const indirectSrc = `
program indirect
  implicit none
  include 'mpif.h'
  integer, parameter :: n = 8
  integer, parameter :: np = 4
  integer as(1:n, 1:n, 1:n)
  integer ar(1:n, 1:n, 1:n)
  integer at(1:64)
  integer iy, ix, tx, ty, ierr, me, checksum

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do iy = 1, n
    call p(iy, me, at)
    do ix = 1, 64
      tx = mod(ix - 1, n) + 1
      ty = (ix - 1)/n + 1
      as(tx, ty, iy) = at(ix)
    enddo
  enddo
  call mpi_alltoall(as, 128, mpi_integer, ar, 128, mpi_integer, mpi_comm_world, ierr)
  checksum = 0
  do iy = 1, n
    do ix = 1, n
      checksum = checksum + ar(ix, iy, 2)*ix + ar(iy, ix, 7)
    enddo
  enddo
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program indirect

subroutine p(iy, me, at)
  integer iy, me
  integer at(*)
  integer i
  do i = 1, 64
    at(i) = i*1000 + iy*10 + me
  enddo
end subroutine p
`

// transform is the one-shot road: analyze src afresh (np 0 = the program's
// own np constant) and apply the uniform plan d.
func transform(src string, np int64, d plan.Decision) (string, *core.Report, error) {
	prog, err := core.Analyze(src, core.AnalyzeOptions{NP: np})
	if err != nil {
		return "", nil, err
	}
	return core.Apply(prog, plan.Uniform(d))
}

// transformAndCompare transforms src, runs both versions on np ranks under
// both network profiles, and requires identical outputs and final arrays.
// It returns the elapsed times (orig, prepush) under the GM profile.
func transformAndCompare(t *testing.T, src string, np int, k int64, tweak ...func(*plan.Decision)) (netsim.Time, netsim.Time) {
	t.Helper()
	d := plan.Decision{K: k}
	for _, f := range tweak {
		f(&d)
	}
	out, rep, err := transform(src, 0, d)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	if rep.TransformedCount() != 1 {
		t.Fatalf("transformed %d sites, want 1\n%s", rep.TransformedCount(), rep)
	}

	var gmOrig, gmPre netsim.Time
	for _, prof := range []netsim.Profile{netsim.MPICHGM(), netsim.MPICHTCP()} {
		po, err := interp.Load(src)
		if err != nil {
			t.Fatalf("load original: %v", err)
		}
		ro, err := po.Run(np, prof)
		if err != nil {
			t.Fatalf("run original (%s): %v", prof, err)
		}
		pt, err := interp.Load(out)
		if err != nil {
			t.Fatalf("load transformed: %v\n%s", err, out)
		}
		rt, err := pt.Run(np, prof)
		if err != nil {
			t.Fatalf("run transformed (%s): %v\n%s", prof, err, out)
		}
		// Equivalence is judged on the printed output and the receive
		// array: the indirect transformation makes the send array dead.
		if same, why := interp.SameObservable(ro, rt, "ar"); !same {
			t.Fatalf("output mismatch (%s): %s\n--- transformed:\n%s", prof, why, out)
		}
		if prof.Offload {
			gmOrig, gmPre = ro.Elapsed(), rt.Elapsed()
		}
	}
	return gmOrig, gmPre
}

func TestEquivalenceDirectOutermost(t *testing.T) {
	for _, k := range []int64{1, 2, 4, 8} {
		transformAndCompare(t, directOutermostSrc, 8, k)
	}
}

func TestEquivalenceDirectInner(t *testing.T) {
	// ny=24: K=5 leaves a leftover of 4 iterations; K=7 leaves 3.
	for _, k := range []int64{1, 3, 5, 7, 8, 24} {
		transformAndCompare(t, directInnerSrc, 4, k)
	}
}

func TestEquivalenceInterchange(t *testing.T) {
	// Force the interchange path (the granularity gate would otherwise
	// choose subset sends for this small array).
	for _, k := range []int64{2, 4} {
		transformAndCompare(t, interchangeSrc, 4, k, func(d *plan.Decision) {
			d.InterchangeMinBlockBytes = 1
		})
	}
}

func TestEquivalenceInterchangeGatedToSubsetSend(t *testing.T) {
	// Default gate: tiny blocks mean the subset-send fallback is used;
	// the result must still be equivalent.
	for _, k := range []int64{2, 4} {
		transformAndCompare(t, interchangeSrc, 4, k)
	}
}

func TestEquivalenceIndirect(t *testing.T) {
	for _, k := range []int64{1, 2} {
		transformAndCompare(t, indirectSrc, 4, k)
	}
}

// prepushPerfSrc is a compute-heavy 3-D kernel sized so that tile blocks
// are large (m×K elements contiguous) and the exchange is bandwidth-bound:
// the configuration where the paper's transformation pays off.
const prepushPerfSrc = `
program perf
  implicit none
  include 'mpif.h'
  integer, parameter :: m = 64
  integer, parameter :: ny = 48
  integer, parameter :: sz = 8
  integer, parameter :: np = 4
  integer as(1:m, 1:ny, 1:sz)
  integer ar(1:m, 1:ny, 1:sz)
  integer im, iy, inode, ierr, me, checksum

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do iy = 1, ny
    do inode = 1, sz
      do im = 1, m
        as(im, iy, inode) = me + (im*iy + inode*3)*(im - iy) + mod(im + iy + inode, 11)*7
      enddo
    enddo
  enddo
  call mpi_alltoall(as, m*ny*sz/np, mpi_integer, ar, m*ny*sz/np, mpi_integer, mpi_comm_world, ierr)
  checksum = 0
  do inode = 1, sz
    do im = 1, m
      checksum = checksum + ar(im, 3, inode)*im - ar(im, 7, inode)
    enddo
  enddo
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program perf
`

func TestPrepushFasterOnOffloadStack(t *testing.T) {
	// The headline claim: with an offload-capable stack, pre-pushing
	// reduces execution time once messages are rendezvous-sized and there
	// is computation to overlap. A lower eager threshold puts the tile
	// blocks (64×8×4 B = 2 KiB) on the rendezvous path without needing a
	// huge (slow-to-interpret) workload.
	out, rep, err := transform(prepushPerfSrc, 0, plan.Decision{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		t.Fatalf("report: %s", rep)
	}
	prof := netsim.MPICHGM()
	prof.EagerThreshold = 1024
	po, err := interp.Load(prepushPerfSrc)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := po.Run(4, prof)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := interp.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := pt.Run(4, prof)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if same, why := interp.SameObservable(ro, rt, "ar"); !same {
		t.Fatalf("mismatch: %s", why)
	}
	if rt.Elapsed() >= ro.Elapsed() {
		t.Errorf("prepush (%v) not faster than original (%v) on offload stack", rt.Elapsed(), ro.Elapsed())
	}
}

func TestTransformedSourceShape(t *testing.T) {
	out, _, err := transform(directOutermostSrc, 0, plan.Decision{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"call mpi_isend(as(cc_lo), 4, mpi_integer, cc_to, cc_tile, mpi_comm_world, cc_reqs(cc_nreq), cc_ierr)",
		"call mpi_irecv(ar(1 + cc_from * 8 + cc_off)",
		"call mpi_waitall(cc_nreq, cc_reqs, mpi_statuses_ignore, cc_ierr)",
		// Staggered subset-send traversal: ring partition order per rank.
		"do cc_po = 1, cc_np",
		"cc_to = mod(cc_me + cc_po, cc_np)",
		"! original mpi_alltoall removed by compuniformer",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transformed source missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "call mpi_alltoall") {
		t.Error("original call not removed")
	}
}

func TestFig4ShapeForInnerNodeLoop(t *testing.T) {
	out, _, err := transform(directInnerSrc, 0, plan.Decision{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The Fig. 4 staggered ring must appear.
	for _, want := range []string{
		"do cc_j = 1, cc_np - 1",
		"cc_to = mod(cc_me + cc_j, cc_np)",
		"cc_from = mod(cc_np + cc_me - cc_j, cc_np)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing Fig. 4 element %q\n%s", want, out)
		}
	}
}

func TestIndirectShape(t *testing.T) {
	out, rep, err := transform(indirectSrc, 0, plan.Decision{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		t.Fatalf("report: %s", rep)
	}
	for _, want := range []string{
		"integer at(1:64, 1:2)", // expanded temporary
		"call p(iy, me, at(1, cc_buf))",
		"! redundant copy loop removed by compuniformer",
		"call mpi_isend(at(1, 1), 128, mpi_integer",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing indirect element %q\n%s", want, out)
		}
	}
	// The copy loop must be gone: no assignment to as remains.
	if strings.Contains(out, "as(tx, ty, iy)") {
		t.Error("copy loop still present")
	}
}

func TestRejectionKNotDividingPartition(t *testing.T) {
	_, rep, err := transform(directOutermostSrc, 0, plan.Decision{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 0 {
		t.Fatal("K=3 with psz=8 must be rejected for the subset-send case")
	}
	found := false
	for _, s := range rep.Sites {
		if strings.Contains(s.Reason, "divide the partition") {
			found = true
		}
	}
	if !found {
		t.Errorf("report: %s", rep)
	}
}
