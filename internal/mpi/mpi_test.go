package mpi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
)

func profiles() []netsim.Profile {
	return []netsim.Profile{netsim.MPICHTCP(), netsim.MPICHGM()}
}

func TestSendRecvValue(t *testing.T) {
	for _, prof := range profiles() {
		got := make([]uint64, 1)
		_, err := runCells(2, prof, func(r *Rank) {
			if r.Me() == 0 {
				r.Send(1, 7, 8, vals(42))
			} else {
				r.Recv(0, 7, 8, whole(&got))
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", prof, err)
		}
		if got[0] != 42 {
			t.Errorf("%s: got %d, want 42", prof, got[0])
		}
	}
}

func TestSendRecvLargeRendezvous(t *testing.T) {
	for _, prof := range profiles() {
		big := prof.EagerThreshold * 4
		payload, got := make([]uint64, big/8), make([]uint64, big/8)
		for i := range payload {
			payload[i] = uint64(i)
		}
		_, err := runCells(2, prof, func(r *Rank) {
			if r.Me() == 0 {
				r.Send(1, 1, big, whole(&payload))
			} else {
				r.Recv(0, 1, big, whole(&got))
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", prof, err)
		}
		if len(got) != len(payload) || got[1000] != 1000 {
			t.Errorf("%s: rendezvous payload corrupted", prof)
		}
	}
}

func TestRecvBeforeSendAndAfter(t *testing.T) {
	// Both orders must work: posted-then-arrived and arrived-then-posted.
	for _, prof := range profiles() {
		for _, recvFirst := range []bool{true, false} {
			got := make([]uint64, 1)
			_, err := runCells(2, prof, func(r *Rank) {
				if r.Me() == 0 {
					if !recvFirst {
						r.Compute(netsim.Time(1)) // send quickly
					} else {
						r.Compute(500 * netsim.Microsecond)
					}
					r.Send(1, 3, 8, vals(9))
				} else {
					if !recvFirst {
						r.Compute(500 * netsim.Microsecond)
					}
					r.Recv(0, 3, 8, whole(&got))
				}
			})
			if err != nil {
				t.Fatalf("%s recvFirst=%v: %v", prof, recvFirst, err)
			}
			if got[0] != 9 {
				t.Errorf("%s recvFirst=%v: got %d", prof, recvFirst, got[0])
			}
		}
	}
}

func TestTagMatchingOrder(t *testing.T) {
	// Two messages with different tags arrive; receives posted in the
	// opposite order must still match by tag.
	for _, prof := range profiles() {
		ab := make([]uint64, 2)
		_, err := runCells(2, prof, func(r *Rank) {
			if r.Me() == 0 {
				r.Send(1, 1, 8, vals(111))
				r.Send(1, 2, 8, vals(222))
			} else {
				r.Compute(netsim.Millisecond) // both likely arrived
				r.Recv(0, 2, 8, Payload{Buf: &ab, Off: 1, Count: 1})
				r.Recv(0, 1, 8, Payload{Buf: &ab, Count: 1})
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", prof, err)
		}
		if ab[0] != 111 || ab[1] != 222 {
			t.Errorf("%s: a=%d b=%d", prof, ab[0], ab[1])
		}
	}
}

func TestNonOvertakingSameTag(t *testing.T) {
	// Same (src,dst,tag): messages must match posted receives in order.
	for _, prof := range profiles() {
		got := make([]uint64, 2)
		_, err := runCells(2, prof, func(r *Rank) {
			if r.Me() == 0 {
				r.Send(1, 5, 8, vals(1))
				r.Send(1, 5, 8, vals(2))
			} else {
				r.Recv(0, 5, 8, Payload{Buf: &got, Count: 1})
				r.Recv(0, 5, 8, Payload{Buf: &got, Off: 1, Count: 1})
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", prof, err)
		}
		if got[0] != 1 || got[1] != 2 {
			t.Errorf("%s: order violated: %d then %d", prof, got[0], got[1])
		}
	}
}

func TestAlltoallCorrectness(t *testing.T) {
	for _, prof := range profiles() {
		for _, np := range []int{2, 4, 8} {
			got := make([][]uint64, np)
			_, err := runCells(np, prof, func(r *Rank) {
				send, recv := make([]uint64, np), make([]uint64, np)
				for dst := range send {
					send[dst] = uint64(r.Me()*100 + dst)
				}
				r.AlltoallPayload(8, Payload{Buf: &send, Count: 1}, Payload{Buf: &recv, Count: 1})
				got[r.Me()] = recv
			})
			if err != nil {
				t.Fatalf("%s np=%d: %v", prof, np, err)
			}
			for me := 0; me < np; me++ {
				for src := 0; src < np; src++ {
					if got[me][src] != uint64(src*100+me) {
						t.Errorf("%s np=%d: rank %d from %d = %d, want %d",
							prof, np, me, src, got[me][src], src*100+me)
					}
				}
			}
		}
	}
}

func TestQuickAlltoallRandomSizes(t *testing.T) {
	r := rand.New(rand.NewSource(2006))
	check := func() bool {
		np := 2 + r.Intn(6)
		elems := 1 + r.Intn(4096)
		prof := profiles()[r.Intn(2)]
		ok := true
		_, err := runCells(np, prof, func(rk *Rank) {
			send, recv := make([]uint64, np*elems), make([]uint64, np*elems)
			for i := range send {
				dst := i / elems
				send[i] = uint64(rk.Me()*1000000 + dst*1000 + i%elems%997)
			}
			part := int64(elems)
			rk.AlltoallPayload(int64(8*elems), Payload{Buf: &send, Count: part}, Payload{Buf: &recv, Count: part})
			for i, v := range recv {
				src := i / elems
				if v != uint64(src*1000000+rk.Me()*1000+i%elems%997) {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, prof := range profiles() {
		var after []netsim.Time
		_, err := Run(4, prof, func(r *Rank) {
			r.Compute(netsim.Time(r.Me()) * 100 * netsim.Microsecond)
			r.Barrier()
			after = append(after, r.Now())
		})
		if err != nil {
			t.Fatalf("%s: %v", prof, err)
		}
		// All ranks leave the barrier no earlier than the slowest entered.
		for _, tm := range after {
			if tm < 300*netsim.Microsecond {
				t.Errorf("%s: rank left barrier at %v before slowest arrival", prof, tm)
			}
		}
	}
}

// TestOverlapMechanism is the heart of the reproduction: with NIC offload,
// a rendezvous isend overlaps with computation (total ≈ max(comm, comp));
// without offload the data moves only at the wait (total ≈ comp + comm).
func TestOverlapMechanism(t *testing.T) {
	const bytes = 8 << 20 // 8 MiB, far above both eager thresholds
	compute := 100 * netsim.Millisecond

	elapsed := func(prof netsim.Profile) netsim.Time {
		st, err := Run(2, prof, func(r *Rank) {
			if r.Me() == 0 {
				req := r.IsendPayload(1, 1, bytes, Payload{})
				r.Compute(compute)
				r.Wait(req)
			} else {
				req := r.IrecvPayload(0, 1, bytes, Payload{})
				r.Compute(compute)
				r.Wait(req)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.End
	}

	gm := elapsed(netsim.MPICHGM())
	tcp := elapsed(netsim.MPICHTCP())

	wireGM := netsim.Time(float64(bytes) * netsim.MPICHGM().GapNsPerByte)
	// Offload: the transfer ran during the compute phase.
	if gm > compute+wireGM/2 {
		t.Errorf("offload did not overlap: total %v, compute %v, wire %v", gm, compute, wireGM)
	}
	// Non-offload: data starts moving at the Wait; no overlap of the bulk.
	wireTCP := netsim.Time(float64(bytes) * netsim.MPICHTCP().GapNsPerByte)
	if tcp < compute+wireTCP {
		t.Errorf("non-offload overlapped unexpectedly: total %v < compute %v + wire %v", tcp, compute, wireTCP)
	}
}

// TestAnyTagReceiveSkipsCollectives: an any-tag receive left outstanding
// across Barrier and Alltoall (eager and rendezvous partitions) takes the next
// user message, never the collectives' own traffic, which matches in a
// context of its own. Before collectives had one, the barrier's release
// landed in the user's buffer and the barrier never ended.
func TestAnyTagReceiveSkipsCollectives(t *testing.T) {
	for _, prof := range profiles() {
		for _, part := range []int64{8, 4 * prof.EagerThreshold} {
			const np = 3
			const user = 777
			got := make([]uint64, 1)
			recv := make([][]uint64, np)
			_, err := runCells(np, prof, func(r *Rank) {
				var req *Request
				if r.Me() == 1 {
					req = r.IrecvPayload(0, AnyTag, 8, whole(&got))
				}
				r.Barrier()
				send := make([]uint64, np)
				for dst := range send {
					send[dst] = uint64(10*r.Me() + dst)
				}
				recv[r.Me()] = make([]uint64, np)
				r.AlltoallPayload(part, Payload{Buf: &send, Count: 1}, Payload{Buf: &recv[r.Me()], Count: 1})
				r.Barrier()
				switch r.Me() {
				case 0:
					r.Send(1, 3, 8, vals(user))
				case 1:
					r.Wait(req)
				}
			})
			if err != nil {
				t.Fatalf("%s part %d: %v", prof, part, err)
			}
			if got[0] != user {
				t.Errorf("%s part %d: any-tag receive got %v, want the user message", prof, part, got[0])
			}
			for me := range recv {
				for src, p := range recv[me] {
					if p != uint64(10*src+me) {
						t.Errorf("%s part %d: rank %d got %v from %d in the alltoall, want %d", prof, part, me, p, src, 10*src+me)
					}
				}
			}
		}
	}
}

func TestDeadlockReported(t *testing.T) {
	_, err := Run(2, netsim.MPICHGM(), func(r *Rank) {
		if r.Me() == 0 {
			r.Recv(1, 9, 8, Payload{}) // never sent
		}
	})
	if err == nil {
		t.Fatal("want deadlock error")
	}
}

func TestRunStatsAccounting(t *testing.T) {
	st, err := Run(2, netsim.MPICHGM(), func(r *Rank) {
		r.Compute(10 * netsim.Millisecond)
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.End < 10*netsim.Millisecond {
		t.Errorf("end = %v", st.End)
	}
	for i, rs := range st.PerRank {
		if rs.Compute < 10*netsim.Millisecond {
			t.Errorf("rank %d compute = %v", i, rs.Compute)
		}
	}
	if st.Messages == 0 {
		t.Error("no messages counted")
	}
}

// TestClosureFormsCarryValues: Isend, Irecv and Alltoall with closures for
// buffers hand place the value fetch returned, at eager and rendezvous sizes,
// with no binding on the rank.
func TestClosureFormsCarryValues(t *testing.T) {
	for _, prof := range profiles() {
		for _, bytes := range []int64{8, 4 * prof.EagerThreshold} {
			const np = 3
			var got interface{}
			parts := make([][]interface{}, np)
			_, err := Run(np, prof, func(r *Rank) {
				switch r.Me() {
				case 0:
					r.Wait(r.Isend(1, 2, bytes, func() interface{} { return "hello" }))
				case 1:
					r.Wait(r.Irecv(0, 2, bytes, func(p interface{}) { got = p }))
				}
				parts[r.Me()] = make([]interface{}, np)
				r.Alltoall(bytes,
					func(dst int) interface{} { return [2]int{r.Me(), dst} },
					func(src int, p interface{}) { parts[r.Me()][src] = p })
			})
			if err != nil {
				t.Fatalf("%s, %d bytes: %v", prof, bytes, err)
			}
			if got != "hello" {
				t.Errorf("%s, %d bytes: Irecv got %v, want hello", prof, bytes, got)
			}
			for me, ps := range parts {
				for src, p := range ps {
					if p != [2]int{src, me} {
						t.Errorf("%s, %d bytes: rank %d got %v from %d", prof, bytes, me, p, src)
					}
				}
			}
		}
	}
}
