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
		var got int64
		_, err := Run(2, prof, func(r *Rank) {
			if r.Me() == 0 {
				r.Send(1, 7, 8, func() interface{} { return int64(42) })
			} else {
				r.Recv(0, 7, 8, func(p interface{}) { got = p.(int64) })
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", prof, err)
		}
		if got != 42 {
			t.Errorf("%s: got %d, want 42", prof, got)
		}
	}
}

func TestSendRecvLargeRendezvous(t *testing.T) {
	for _, prof := range profiles() {
		big := prof.EagerThreshold * 4
		var got []int64
		payload := make([]int64, big/8)
		for i := range payload {
			payload[i] = int64(i)
		}
		_, err := Run(2, prof, func(r *Rank) {
			if r.Me() == 0 {
				r.Send(1, 1, big, func() interface{} { return payload })
			} else {
				r.Recv(0, 1, big, func(p interface{}) { got = p.([]int64) })
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
			var got int64
			_, err := Run(2, prof, func(r *Rank) {
				if r.Me() == 0 {
					if !recvFirst {
						r.Compute(netsim.Time(1)) // send quickly
					} else {
						r.Compute(500 * netsim.Microsecond)
					}
					r.Send(1, 3, 8, func() interface{} { return int64(9) })
				} else {
					if !recvFirst {
						r.Compute(500 * netsim.Microsecond)
					}
					r.Recv(0, 3, 8, func(p interface{}) { got = p.(int64) })
				}
			})
			if err != nil {
				t.Fatalf("%s recvFirst=%v: %v", prof, recvFirst, err)
			}
			if got != 9 {
				t.Errorf("%s recvFirst=%v: got %d", prof, recvFirst, got)
			}
		}
	}
}

func TestTagMatchingOrder(t *testing.T) {
	// Two messages with different tags arrive; receives posted in the
	// opposite order must still match by tag.
	for _, prof := range profiles() {
		var a, b int64
		_, err := Run(2, prof, func(r *Rank) {
			if r.Me() == 0 {
				r.Send(1, 1, 8, func() interface{} { return int64(111) })
				r.Send(1, 2, 8, func() interface{} { return int64(222) })
			} else {
				r.Compute(netsim.Millisecond) // both likely arrived
				r.Recv(0, 2, 8, func(p interface{}) { b = p.(int64) })
				r.Recv(0, 1, 8, func(p interface{}) { a = p.(int64) })
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", prof, err)
		}
		if a != 111 || b != 222 {
			t.Errorf("%s: a=%d b=%d", prof, a, b)
		}
	}
}

func TestNonOvertakingSameTag(t *testing.T) {
	// Same (src,dst,tag): messages must match posted receives in order.
	for _, prof := range profiles() {
		var first, second int64
		_, err := Run(2, prof, func(r *Rank) {
			if r.Me() == 0 {
				r.Send(1, 5, 8, func() interface{} { return int64(1) })
				r.Send(1, 5, 8, func() interface{} { return int64(2) })
			} else {
				r.Recv(0, 5, 8, func(p interface{}) { first = p.(int64) })
				r.Recv(0, 5, 8, func(p interface{}) { second = p.(int64) })
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", prof, err)
		}
		if first != 1 || second != 2 {
			t.Errorf("%s: order violated: %d then %d", prof, first, second)
		}
	}
}

func TestAlltoallCorrectness(t *testing.T) {
	for _, prof := range profiles() {
		for _, np := range []int{2, 4, 8} {
			got := make([][]int64, np)
			_, err := Run(np, prof, func(r *Rank) {
				recv := make([]int64, np)
				r.Alltoall(8,
					func(dst int) interface{} { return int64(r.Me()*100 + dst) },
					func(src int, p interface{}) { recv[src] = p.(int64) })
				got[r.Me()] = recv
			})
			if err != nil {
				t.Fatalf("%s np=%d: %v", prof, np, err)
			}
			for me := 0; me < np; me++ {
				for src := 0; src < np; src++ {
					if got[me][src] != int64(src*100+me) {
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
		_, err := Run(np, prof, func(rk *Rank) {
			recv := make([][]int64, np)
			rk.Alltoall(int64(8*elems),
				func(dst int) interface{} {
					buf := make([]int64, elems)
					for i := range buf {
						buf[i] = int64(rk.Me()*1000000 + dst*1000 + i%997)
					}
					return buf
				},
				func(src int, p interface{}) { recv[src] = p.([]int64) })
			for src := 0; src < np; src++ {
				for i, v := range recv[src] {
					if v != int64(src*1000000+rk.Me()*1000+i%997) {
						ok = false
					}
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

func TestBcastAllRanks(t *testing.T) {
	for _, prof := range profiles() {
		for _, root := range []int{0, 2} {
			vals := make([]int64, 5)
			_, err := Run(5, prof, func(r *Rank) {
				var v int64
				r.Bcast(root, 8,
					func() interface{} { return int64(777) },
					func(p interface{}) { v = p.(int64) })
				vals[r.Me()] = v
			})
			if err != nil {
				t.Fatalf("%s root=%d: %v", prof, root, err)
			}
			for i, v := range vals {
				if v != 777 {
					t.Errorf("%s root=%d: rank %d got %d", prof, root, i, v)
				}
			}
		}
	}
}

func TestAlltoallvVariableSizes(t *testing.T) {
	np := 4
	_, err := Run(np, netsim.MPICHGM(), func(r *Rank) {
		parts := make([][]int64, np)
		for d := 0; d < np; d++ {
			n := (r.Me() + d) % 3 // some empty
			for i := 0; i < n; i++ {
				parts[d] = append(parts[d], int64(r.Me()*100+d*10+i))
			}
		}
		got := r.AlltoallvInt64(parts)
		for src := 0; src < np; src++ {
			wantN := (src + r.Me()) % 3
			if len(got[src]) != wantN {
				panic("alltoallv size wrong")
			}
			for i, v := range got[src] {
				if v != int64(src*100+r.Me()*10+i) {
					panic("alltoallv value wrong")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
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
				req := r.Isend(1, 1, bytes, func() interface{} { return nil })
				r.Compute(compute)
				r.Wait(req)
			} else {
				req := r.Irecv(0, 1, bytes, func(interface{}) {})
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
			var got interface{}
			recv := make([][]interface{}, np)
			_, err := Run(np, prof, func(r *Rank) {
				var req *Request
				if r.Me() == 1 {
					req = r.Irecv(0, AnyTag, 8, func(p interface{}) { got = p })
				}
				r.Barrier()
				recv[r.Me()] = make([]interface{}, np)
				r.Alltoall(part,
					func(dst int) interface{} { return 10*r.Me() + dst },
					func(src int, p interface{}) { recv[r.Me()][src] = p })
				r.Barrier()
				switch r.Me() {
				case 0:
					r.Send(1, 3, 8, func() interface{} { return "user" })
				case 1:
					r.Wait(req)
				}
			})
			if err != nil {
				t.Fatalf("%s part %d: %v", prof, part, err)
			}
			if got != "user" {
				t.Errorf("%s part %d: any-tag receive got %v, want the user message", prof, part, got)
			}
			for me := range recv {
				for src, p := range recv[me] {
					if p != 10*src+me {
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
			r.Recv(1, 9, 8, func(interface{}) {}) // never sent
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
