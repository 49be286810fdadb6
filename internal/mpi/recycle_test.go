package mpi

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/netsim"
)

// recycleRun is one run of TestRecycledRunsAreIdentical's sequence.
type recycleRun struct {
	name string
	np   int
	prof netsim.Profile
	body func(r *Rank, got *delivered)
}

// delivered is what a run's receives placed, by rank, in completion order.
type delivered struct {
	mu  sync.Mutex
	got [][]string
}

func (d *delivered) place(me int, what string) {
	d.mu.Lock()
	d.got[me] = append(d.got[me], what)
	d.mu.Unlock()
}

// recycleOutcome is what a run observably did.
type recycleOutcome struct {
	stats *RunStats
	err   string
	got   [][]string
}

func (c recycleRun) run() recycleOutcome {
	d := &delivered{got: make([][]string, c.np)}
	st, err := Run(c.np, c.prof, func(r *Rank) { c.body(r, d) })
	out := recycleOutcome{stats: st, got: d.got}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// recycleSequence covers np 2, 3 and 8, both stacks, eager and rendezvous
// sizes, an any-tag receive, a send left unmatched at the end and a
// deadlock in the middle.
func recycleSequence() []recycleRun {
	const eager, rndv = 512, 64 << 10
	// ring: every rank sends to each other rank and receives from each, the
	// prepush shape, with a tag per peer.
	ring := func(bytes int64) func(r *Rank, d *delivered) {
		return func(r *Rank, d *delivered) {
			var reqs []*Request
			for j := 1; j < r.NP(); j++ {
				src := (r.NP() + r.Me() - j) % r.NP()
				reqs = append(reqs, r.Irecv(src, src, bytes, func(p interface{}) { d.place(r.Me(), fmt.Sprint(p)) }))
			}
			for j := 1; j < r.NP(); j++ {
				dst, me := (r.Me()+j)%r.NP(), r.Me()
				reqs = append(reqs, r.Isend(dst, me, bytes, func() interface{} { return fmt.Sprintf("%d→%d", me, dst) }))
			}
			r.Compute(netsim.Time(30*r.Me()) * netsim.Microsecond)
			r.Waitall(reqs)
		}
	}
	anyTag := func(r *Rank, d *delivered) {
		if r.Me() == 0 {
			for tag := 3; tag < 6; tag++ {
				r.Send(1, tag, eager, func() interface{} { return tag })
			}
			return
		}
		for i := 0; i < 3; i++ {
			r.Recv(0, AnyTag, eager, func(p interface{}) { d.place(1, fmt.Sprint("any ", p)) })
		}
	}
	unmatched := func(r *Rank, d *delivered) {
		switch r.Me() {
		case 0:
			r.Send(1, 1, rndv, func() interface{} { return "matched" })
			r.Isend(2, 9, eager, func() interface{} { return "never received" })
		case 1:
			r.Recv(0, 1, rndv, func(p interface{}) { d.place(1, fmt.Sprint(p)) })
		}
		r.Barrier()
	}
	deadlock := func(r *Rank, d *delivered) {
		r.Isend(1-r.Me(), 7, rndv, func() interface{} { return "late" })
		r.Recv(1-r.Me(), 8, eager, func(p interface{}) { d.place(r.Me(), fmt.Sprint(p)) })
	}
	alltoall := func(r *Rank, d *delivered) {
		r.Alltoall(rndv, func(dst int) interface{} { return dst }, func(src int, p interface{}) {
			d.place(r.Me(), fmt.Sprint(src, p))
		})
	}
	var seq []recycleRun
	for _, prof := range []netsim.Profile{netsim.MPICHTCP(), netsim.MPICHGM()} {
		seq = append(seq,
			recycleRun{"ring eager np 8", 8, prof, ring(eager)},
			recycleRun{"any tag np 2", 2, prof, anyTag},
			recycleRun{"ring rendezvous np 3", 3, prof, ring(rndv)},
			recycleRun{"deadlock np 2", 2, prof, deadlock},
			recycleRun{"unmatched send np 3", 3, prof, unmatched},
			recycleRun{"alltoall np 8", 8, prof, alltoall},
		)
	}
	return seq
}

// TestRecycledRunsAreIdentical runs a fixed sequence three times, each time
// from another start, then from two goroutines at once: every run, on
// requests, rings and queues earlier runs used, must repeat the first run's
// statistics, error and delivered payloads.
func TestRecycledRunsAreIdentical(t *testing.T) {
	seq := recycleSequence()
	first := make([]recycleOutcome, len(seq))
	for i, c := range seq {
		first[i] = c.run()
	}
	for i, c := range seq {
		if strings.HasPrefix(c.name, "deadlock") != (first[i].err != "") {
			t.Fatalf("%s on %s: error %q", c.name, c.prof, first[i].err)
		}
	}
	check := func(pass string, i int, got recycleOutcome) {
		if !reflect.DeepEqual(got, first[i]) {
			t.Errorf("%s: %s on %s differs from its first run:\n got %+v\nwant %+v", pass, seq[i].name, seq[i].prof, got, first[i])
		}
	}
	for start := 1; start < 3; start++ {
		for k := range seq {
			i := (start*len(seq)/3 + k) % len(seq)
			check(fmt.Sprintf("pass %d", start), i, seq[i].run())
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range seq {
				i := (g*len(seq)/2 + k) % len(seq)
				check(fmt.Sprintf("goroutine %d", g), i, seq[i].run())
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmRunAllocatesNothingPerMessage holds a run's memory per message to
// what the pools lend: on a warm pool, a 2-rank run of n isend/irecv pairs
// with static payload callbacks allocates the same at n = 2048 as at n =
// 256, give or take 8 B a message.
func TestWarmRunAllocatesNothingPerMessage(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops some of what it is given")
	}
	const small, large = 256, 2048
	fetch := func() interface{} { return nil }
	place := func(interface{}) {}
	// The handle arrays are the caller's, made before anything is measured.
	handles := [2][]*Request{make([]*Request, large), make([]*Request, large)}
	run := func(n int) {
		_, err := Run(2, netsim.MPICHGM(), func(r *Rank) {
			reqs := handles[r.Me()][:n]
			for i := range reqs {
				if r.Me() == 0 {
					reqs[i] = r.Isend(1, i, 8, fetch)
				} else {
					reqs[i] = r.Irecv(0, i, 8, place)
				}
			}
			r.Waitall(reqs)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The fewest bytes of a few runs: a collection between two can empty
	// the pools.
	alloc := func(n int) uint64 {
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			run(n)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(n)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	run(large)
	a, b := alloc(small), alloc(large)
	t.Logf("n = %d: %d B; n = %d: %d B", small, a, large, b)
	if b > a && b-a >= 8*(large-small) {
		t.Fatalf("a warm run of %d messages allocated %d B more than one of %d: %d B per extra message, want < 8",
			large, b-a, small, (b-a)/(large-small))
	}
}
