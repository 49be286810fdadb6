package interp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// runOn loads src and runs it on np ranks under prof.
func runOn(t *testing.T, src string, np int, prof netsim.Profile) *Result {
	t.Helper()
	p, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(np, prof)
	if err != nil {
		t.Fatalf("run under %s: %v", prof, err)
	}
	return res
}

// pingPong exchanges an 8-element message between two ranks with
// isend/irecv/wait and prints what arrived.
const pingPong = `
program pp
  implicit none
  include 'mpif.h'
  integer me, ierr, req1, req2
  integer sb(1:8), rb(1:8)
  integer i, peer
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do i = 1, 8
    sb(i) = me*100 + i*3
  enddo
  peer = 1 - me
  call mpi_irecv(rb, 8, mpi_integer, peer, 0, mpi_comm_world, req1, ierr)
  call mpi_isend(sb, 8, mpi_integer, peer, 0, mpi_comm_world, req2, ierr)
  call mpi_wait(req1, mpi_status_ignore, ierr)
  call mpi_wait(req2, mpi_status_ignore, ierr)
  print *, rb(1), rb(8)
  call mpi_finalize(ierr)
end program pp
`

// TestSendRecvBothRegimesBothProfiles runs the same exchange in the eager
// regime (default 16 KiB threshold, 32-byte payload) and the rendezvous
// regime (threshold forced below the payload) under both network stacks:
// delivered data must be identical everywhere, only timing may differ.
func TestSendRecvBothRegimesBothProfiles(t *testing.T) {
	base := map[string]netsim.Profile{
		"tcp": netsim.MPICHTCP(),
		"gm":  netsim.MPICHGM(),
	}
	for name, prof := range base {
		for _, regime := range []string{"eager", "rendezvous"} {
			p := prof
			if regime == "rendezvous" {
				p.EagerThreshold = 16 // 32-byte payload goes rendezvous
			}
			t.Run(name+"/"+regime, func(t *testing.T) {
				res := runOn(t, pingPong, 2, p)
				if got := res.Output[0][0]; got != "103 124" {
					t.Errorf("rank 0 received %q, want %q", got, "103 124")
				}
				if got := res.Output[1][0]; got != "3 24" {
					t.Errorf("rank 1 received %q, want %q", got, "3 24")
				}
				if res.Elapsed() <= 0 {
					t.Error("nonpositive elapsed time")
				}
			})
		}
	}
}

// overwriteAfterIsend posts a send, then overwrites the send buffer before
// waiting. The runtime snapshots eager payloads at post time but rendezvous
// payloads when the transfer actually starts — so the receiver observes the
// protocol difference, exactly as on hardware.
const overwriteAfterIsend = `
program ow
  implicit none
  include 'mpif.h'
  integer me, ierr, req
  integer sb(1:4), rb(1:4)
  integer i
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  if (me == 0) then
    do i = 1, 4
      sb(i) = 7
    enddo
    call mpi_isend(sb, 4, mpi_integer, 1, 0, mpi_comm_world, req, ierr)
    do i = 1, 4
      sb(i) = 9
    enddo
    call mpi_wait(req, mpi_status_ignore, ierr)
  else
    call mpi_recv(rb, 4, mpi_integer, 0, 0, mpi_comm_world, mpi_status_ignore, ierr)
    print *, rb(1), rb(4)
  endif
  call mpi_finalize(ierr)
end program ow
`

// TestEagerSnapshotsAtPostTime: in the eager regime the buffer is reusable
// immediately after the isend returns — the receiver gets the original
// values even though the sender overwrote the buffer before waiting.
func TestEagerSnapshotsAtPostTime(t *testing.T) {
	for _, prof := range []netsim.Profile{netsim.MPICHTCP(), netsim.MPICHGM()} {
		res := runOn(t, overwriteAfterIsend, 2, prof)
		if got := res.Output[1][0]; got != "7 7" {
			t.Errorf("%s: receiver saw %q, want pre-overwrite %q", prof, got, "7 7")
		}
	}
}

// TestRendezvousReadsBufferAtTransferStart: with the threshold forced below
// the payload, the same program delivers the overwritten values — the
// rendezvous protocol reads the buffer only when the transfer starts, so
// overwriting an in-flight buffer produces wrong answers in simulation just
// as it would on hardware.
func TestRendezvousReadsBufferAtTransferStart(t *testing.T) {
	for _, prof := range []netsim.Profile{netsim.MPICHTCP(), netsim.MPICHGM()} {
		prof.EagerThreshold = 4
		res := runOn(t, overwriteAfterIsend, 2, prof)
		if got := res.Output[1][0]; got != "9 9" {
			t.Errorf("%s: receiver saw %q, want post-overwrite %q", prof, got, "9 9")
		}
	}
}

// TestOverwriteAfterIsendDoesNotCertify: the recording sees what the two
// tests above show: the program stores to its send buffer while the isend
// is in flight, so its data is the protocol's. Under either protocol the
// skeleton does not certify, names the store, and does not replay.
func TestOverwriteAfterIsendDoesNotCertify(t *testing.T) {
	p, err := Load(overwriteAfterIsend)
	if err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []int64{1 << 20, 4} {
		prof := netsim.MPICHGM()
		prof.EagerThreshold = threshold
		_, skel, err := p.Record(2, prof)
		if err != nil {
			t.Fatal(err)
		}
		if skel.Certifies() || skel.InFlight() == nil ||
			skel.InFlight().Error() != "rank 0: store to sb element 1 while a nonblocking request on it is in flight" {
			t.Fatalf("eager threshold %d: certifies %v, reason %v", threshold, skel.Certifies(), skel.InFlight())
		}
		if _, err := skel.Replay(prof, DefaultCosts()); err != skel.InFlight() {
			t.Fatalf("eager threshold %d: replay err = %v, want the reason", threshold, err)
		}
	}
}

// TestRendezvousSlowerThanEagerOnTCP: on the host-progress stack the
// rendezvous handshake (RTS/CTS round trip) must cost wall time relative to
// the eager path for the same payload.
func TestRendezvousSlowerThanEagerOnTCP(t *testing.T) {
	prof := netsim.MPICHTCP()
	eager := runOn(t, pingPong, 2, prof).Elapsed()
	prof.EagerThreshold = 16
	rdv := runOn(t, pingPong, 2, prof).Elapsed()
	if rdv <= eager {
		t.Errorf("rendezvous (%s) should be slower than eager (%s) for a tiny payload", rdv, eager)
	}
}

// crossRecv is the classic head-to-head deadlock: both ranks issue a
// blocking receive first, so no send can ever be posted.
const crossRecv = `
program dl
  implicit none
  include 'mpif.h'
  integer me, ierr, peer
  integer sb(1:4), rb(1:4)
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  peer = 1 - me
  call mpi_recv(rb, 4, mpi_integer, peer, 0, mpi_comm_world, mpi_status_ignore, ierr)
  call mpi_send(sb, 4, mpi_integer, peer, 0, mpi_comm_world, ierr)
  call mpi_finalize(ierr)
end program dl
`

// TestDeadlockDetected: the engine must detect the cycle and report the
// blocked processes instead of hanging, under both profiles and regimes.
func TestDeadlockDetected(t *testing.T) {
	lowEager := netsim.MPICHGM()
	lowEager.EagerThreshold = 4
	for _, prof := range []netsim.Profile{netsim.MPICHTCP(), netsim.MPICHGM(), lowEager} {
		p, err := Load(crossRecv)
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.Run(2, prof)
		if err == nil {
			t.Fatalf("%s: want deadlock error, got none", prof)
		}
		if !strings.Contains(err.Error(), "deadlock") {
			t.Errorf("%s: error %q does not mention deadlock", prof, err)
		}
	}
}

// TestWaitallReleasesRequests: mpi_waitall must complete every request in
// its handle array and zero the handles (a second waitall is a no-op on
// null requests).
func TestWaitallReleasesRequests(t *testing.T) {
	src := `
program wa
  implicit none
  include 'mpif.h'
  integer me, ierr, peer
  integer sb(1:4), rb(1:4)
  integer reqs(1:2)
  integer i
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  peer = 1 - me
  do i = 1, 4
    sb(i) = me*10 + i
  enddo
  call mpi_irecv(rb, 4, mpi_integer, peer, 0, mpi_comm_world, reqs(1), ierr)
  call mpi_isend(sb, 4, mpi_integer, peer, 0, mpi_comm_world, reqs(2), ierr)
  call mpi_waitall(2, reqs, mpi_statuses_ignore, ierr)
  call mpi_waitall(2, reqs, mpi_statuses_ignore, ierr)
  print *, rb(1), rb(4), reqs(1), reqs(2)
  call mpi_finalize(ierr)
end program wa
`
	for _, prof := range []netsim.Profile{netsim.MPICHTCP(), netsim.MPICHGM()} {
		res := runOn(t, src, 2, prof)
		if got := res.Output[0][0]; got != "11 14 0 0" {
			t.Errorf("%s rank 0: %q, want %q", prof, got, "11 14 0 0")
		}
		if got := res.Output[1][0]; got != "1 4 0 0" {
			t.Errorf("%s rank 1: %q, want %q", prof, got, "1 4 0 0")
		}
	}
}

// TestFinalArraysIgnoreLateTransfers: a rank's final arrays are its arrays
// when it ended. Results alias the array storage instead of copying it, but
// not for a rank with a request still outstanding — a transfer completing
// after the rank's end must not show in its result.
func TestFinalArraysIgnoreLateTransfers(t *testing.T) {
	for _, prof := range []netsim.Profile{netsim.MPICHTCP(), netsim.MPICHGM()} {
		src, err := os.ReadFile(filepath.Join("testdata", "late_receive.f90"))
		if err != nil {
			t.Fatal(err)
		}
		res := runOn(t, string(src), 2, prof)
		a := res.Arrays[0]["a"].([]int64)
		for i, v := range a {
			if v != 0 {
				t.Errorf("%s: rank 0 a(%d) = %d: a transfer that completed after the rank ended shows in its final array", prof.Name, i+1, v)
			}
		}
		if b := res.Arrays[1]["b"].([]int64); b[3] != 44 {
			t.Errorf("%s: rank 1 b = %v", prof.Name, b)
		}
	}
}

// TestDataAliasesSnapshotCopies pins the two ways a result takes an array.
func TestDataAliasesSnapshotCopies(t *testing.T) {
	for _, kind := range []Kind{KInt, KReal, KBool} {
		backing, err := NewArray("m", kind, []DimBound{{Lo: 1, Hi: 6}})
		if err != nil {
			t.Fatal(err)
		}
		a, err := View("v", backing, 2, []DimBound{{Lo: 0, Hi: 2}})
		if err != nil {
			t.Fatal(err)
		}
		data, snap := a.Data(), a.Snapshot()
		one := IntVal(1)
		if kind == KBool {
			one = BoolVal(true)
		}
		a.RawSet(1, one)
		switch d := data.(type) {
		case []int64:
			if len(d) != 3 || cap(d) != 3 || d[1] != 1 || snap.([]int64)[1] != 0 {
				t.Errorf("%s: data %v (cap %d), snapshot %v after a store", kind, d, cap(d), snap)
			}
		case []float64:
			if len(d) != 3 || cap(d) != 3 || d[1] != 1 || snap.([]float64)[1] != 0 {
				t.Errorf("%s: data %v (cap %d), snapshot %v after a store", kind, d, cap(d), snap)
			}
		}
	}
}
