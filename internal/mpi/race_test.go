package mpi

import (
	"testing"

	"repro/internal/netsim"
)

// TestBufferOverwriteRaceIsVisible validates a property the reproduction
// relies on: the runtime snapshots send buffers when the protocol actually
// reads them (post time for eager, transfer start for rendezvous), so a
// program that overwrites an in-flight rendezvous buffer before waiting —
// the bug the transformation must never introduce — produces wrong data in
// simulation just as it would on RDMA hardware.
func TestBufferOverwriteRaceIsVisible(t *testing.T) {
	prof := netsim.MPICHGM()
	big := prof.EagerThreshold * 4

	run := func(overwriteEarly bool) uint64 {
		got := make([]uint64, 1)
		_, err := runCells(2, prof, func(r *Rank) {
			if r.Me() == 0 {
				buf := []uint64{1}
				req := r.IsendPayload(1, 1, big, whole(&buf))
				if overwriteEarly {
					// Overwrite while the NIC may not have read it yet:
					// the rendezvous data leaves only after the CTS.
					buf[0] = 666
					r.Compute(50 * netsim.Millisecond)
				} else {
					r.Compute(50 * netsim.Millisecond)
					r.Wait(req)
					buf[0] = 666 // safe: after completion
				}
				r.Wait(req)
			} else {
				r.Compute(10 * netsim.Millisecond) // recv posted a bit late
				r.Recv(0, 1, big, whole(&got))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return got[0]
	}

	if v := run(false); v != 1 {
		t.Errorf("safe schedule delivered %d, want 1", v)
	}
	if v := run(true); v != 666 {
		t.Errorf("racy schedule delivered %d; the race should be visible (want 666)", v)
	}
}

// TestEagerBuffersSafeImmediately: eager sends copy at post time, so
// overwriting right after Isend is safe (MPI buffered-send semantics).
func TestEagerBuffersSafeImmediately(t *testing.T) {
	prof := netsim.MPICHGM()
	got := make([]uint64, 1)
	_, err := runCells(2, prof, func(r *Rank) {
		if r.Me() == 0 {
			buf := []uint64{7}
			req := r.IsendPayload(1, 1, 8, whole(&buf))
			buf[0] = 999 // harmless: the payload was snapshotted at post
			r.Wait(req)
		} else {
			r.Recv(0, 1, 8, whole(&got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Errorf("eager payload = %d, want 7", got[0])
	}
}

// TestRendezvousBlockedSenderKicksDuringWait exercises the in-event kick
// path: the sender enters Wait before the CTS arrives, so the transfer must
// start from inside the CTS event while the host is blocked.
func TestRendezvousBlockedSenderKicksDuringWait(t *testing.T) {
	prof := netsim.MPICHTCP() // host progress
	big := prof.EagerThreshold * 2
	payload, got := make([]uint64, big/8), make([]uint64, big/8)
	payload[0] = 42
	_, err := runCells(2, prof, func(r *Rank) {
		if r.Me() == 0 {
			req := r.IsendPayload(1, 1, big, whole(&payload))
			r.Wait(req) // blocked before the CTS round trip completes
		} else {
			r.Compute(5 * netsim.Millisecond) // delay the recv post
			r.Recv(0, 1, big, whole(&got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Errorf("rendezvous during blocked wait failed: %v", got)
	}
}

// TestHostProgressDelaysTransfer: without offload, a sender that posts an
// isend and then computes without touching MPI delays the bulk transfer
// until its next MPI call — the exact mechanism that defeats overlap.
func TestHostProgressDelaysTransfer(t *testing.T) {
	prof := netsim.MPICHTCP()
	big := int64(1 << 20)
	compute := 200 * netsim.Millisecond

	st, err := Run(2, prof, func(r *Rank) {
		if r.Me() == 0 {
			req := r.IsendPayload(1, 1, big, Payload{})
			r.Compute(compute) // no MPI calls here: nothing progresses
			r.Wait(req)
		} else {
			req := r.IrecvPayload(0, 1, big, Payload{})
			r.Wait(req)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wire := netsim.Time(float64(big) * prof.GapNsPerByte)
	if st.End < compute+wire {
		t.Errorf("transfer overlapped on a host-progress stack: end %v < compute %v + wire %v",
			st.End, compute, wire)
	}
}

// TestOffloadProgressesWithoutHost: the same schedule with offload
// completes in ~max(compute, transfer) because the NIC works alone.
func TestOffloadProgressesWithoutHost(t *testing.T) {
	prof := netsim.MPICHGM()
	big := int64(1 << 20)
	compute := 200 * netsim.Millisecond

	st, err := Run(2, prof, func(r *Rank) {
		if r.Me() == 0 {
			req := r.IsendPayload(1, 1, big, Payload{})
			r.Compute(compute)
			r.Wait(req)
		} else {
			req := r.IrecvPayload(0, 1, big, Payload{})
			r.Compute(compute)
			r.Wait(req)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wire := netsim.Time(float64(big) * prof.GapNsPerByte)
	slack := 10 * netsim.Millisecond
	if st.End > compute+wire/2+slack {
		t.Errorf("offload did not overlap: end %v, compute %v, wire %v", st.End, compute, wire)
	}
}

// TestManyOutstandingRequests stresses the request bookkeeping: hundreds of
// posted operations drained by one Waitall, in both directions.
func TestManyOutstandingRequests(t *testing.T) {
	const nmsg = 300
	for _, prof := range []netsim.Profile{netsim.MPICHTCP(), netsim.MPICHGM()} {
		sum := uint64(0)
		_, err := runCells(2, prof, func(r *Rank) {
			var reqs []*Request
			if r.Me() == 0 {
				for i := 0; i < nmsg; i++ {
					reqs = append(reqs, r.IsendPayload(1, i, 8, vals(uint64(i))))
				}
			} else {
				results := make([]uint64, nmsg)
				for i := 0; i < nmsg; i++ {
					reqs = append(reqs, r.IrecvPayload(0, i, 8, Payload{Buf: &results, Off: int64(i), Count: 1}))
				}
				defer func() {
					for _, v := range results {
						sum += v
					}
				}()
			}
			r.Waitall(reqs)
		})
		if err != nil {
			t.Fatalf("%s: %v", prof, err)
		}
		want := uint64(nmsg * (nmsg - 1) / 2)
		if sum != want {
			t.Errorf("%s: sum = %d, want %d", prof, sum, want)
		}
	}
}
