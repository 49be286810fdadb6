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

// recorder is the sequence's Binding: a send's buffer is a *[]uint64, a
// receive's a *slot, and every write records the words it delivered.
type recorder struct{}

// slot is a receive's buffer: what lands in it is placed under label.
type slot struct {
	d     *delivered
	me    int
	label string
}

func (recorder) Read(p Payload, words []uint64) bool { return cells{}.Read(p, words) }

func (recorder) Write(p, _ Payload, words []uint64) {
	s := p.Buf.(*slot)
	s.d.place(s.me, fmt.Sprint(s.label, " ", p.Off, " ", words))
}

// into is a receive's payload of n words, placed under label.
func (d *delivered) into(me int, label string, n int64) Payload {
	return Payload{Buf: &slot{d, me, label}, Count: n}
}

// recycleOutcome is what a run observably did.
type recycleOutcome struct {
	stats *RunStats
	err   string
	got   [][]string
}

func (c recycleRun) run() recycleOutcome {
	d := &delivered{got: make([][]string, c.np)}
	st, err := Run(c.np, c.prof, func(r *Rank) {
		r.Bind(recorder{})
		c.body(r, d)
	})
	out := recycleOutcome{stats: st, got: d.got}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// recycleSequence covers np 2, 3 and 8, both stacks, eager and rendezvous
// sizes, an any-tag receive, a send left unmatched at the end and a
// deadlock in the middle. Every message carries several words of data.
func recycleSequence() []recycleRun {
	const eager, rndv = 512, 64 << 10
	// ring: every rank sends to each other rank and receives from each, the
	// prepush shape, with a tag per peer, and waits by handle.
	ring := func(bytes int64) func(r *Rank, d *delivered) {
		return func(r *Rank, d *delivered) {
			var hs []int64
			for j := 1; j < r.NP(); j++ {
				src := (r.NP() + r.Me() - j) % r.NP()
				hs = append(hs, r.Hold(r.IrecvPayload(src, src, bytes, d.into(r.Me(), "ring", 4))))
			}
			for j := 1; j < r.NP(); j++ {
				dst, me := (r.Me()+j)%r.NP(), r.Me()
				hs = append(hs, r.Hold(r.IsendPayload(dst, me, bytes, vals(uint64(me), uint64(dst), uint64(bytes), 0xa5))))
			}
			r.Compute(netsim.Time(30*r.Me()) * netsim.Microsecond)
			for _, h := range hs {
				req, _ := r.Take(h)
				r.Wait(req)
			}
			d.place(r.Me(), fmt.Sprint("handles ", hs, " held ", r.Holding()))
		}
	}
	anyTag := func(r *Rank, d *delivered) {
		if r.Me() == 0 {
			for tag := 3; tag < 6; tag++ {
				r.Send(1, tag, eager, vals(uint64(tag), uint64(10*tag)))
			}
			return
		}
		for i := 0; i < 3; i++ {
			r.Recv(0, AnyTag, eager, d.into(1, "any", 2))
		}
	}
	unmatched := func(r *Rank, d *delivered) {
		switch r.Me() {
		case 0:
			r.Send(1, 1, rndv, vals(1, 2, 3))
			never := make([]uint64, 2*firstWords)
			for i := range never {
				never[i] = 0xdead
			}
			r.IsendPayload(2, 9, eager, whole(&never))
		case 1:
			r.Recv(0, 1, rndv, d.into(1, "matched", 3))
		}
		r.Barrier()
	}
	deadlock := func(r *Rank, d *delivered) {
		r.IsendPayload(1-r.Me(), 7, rndv, vals(5, 6))
		r.Recv(1-r.Me(), 8, eager, d.into(r.Me(), "late", 2))
	}
	alltoall := func(r *Rank, d *delivered) {
		send := make([]uint64, 3*r.NP())
		for i := range send {
			send[i] = uint64(100*r.Me() + 10*(i/3) + i%3)
		}
		r.AlltoallPayload(rndv, Payload{Buf: &send, Count: 3}, d.into(r.Me(), "alltoall", 3))
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
// from another start, then every run right after the one that leaves an
// eager send unmatched, then from two goroutines at once: every run, on
// requests, payload words, rings and queues earlier runs used, must repeat
// the first run's statistics, error and delivered payloads.
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
	// The unmatched send's words go back unread with its run; the next run
	// draws them for its own payloads.
	for _, u := range seq {
		if !strings.HasPrefix(u.name, "unmatched") {
			continue
		}
		for i, c := range seq {
			u.run()
			check("after "+u.name+" on "+u.prof.String(), i, c.run())
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
// what the pools lend: on a warm pool, a 2-rank run of n isend/irecv pairs,
// each moving two words, allocates the same at n = 2048 as at n = 256, give
// or take 8 B a message.
func TestWarmRunAllocatesNothingPerMessage(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops some of what it is given")
	}
	const small, large = 256, 2048
	// The buffers are the caller's, made before anything is measured.
	send, recv := []uint64{1, 2}, make([]uint64, 2*large)
	run := func(n int) {
		_, err := runCells(2, netsim.MPICHGM(), func(r *Rank) {
			for i := 0; i < n; i++ {
				if r.Me() == 0 {
					r.Hold(r.IsendPayload(1, i, 16, whole(&send)))
				} else {
					r.Hold(r.IrecvPayload(0, i, 16, Payload{Buf: &recv, Off: int64(2 * i), Count: 2}))
				}
			}
			for h := 1; h <= n; h++ {
				req, _ := r.Take(int64(h))
				r.Wait(req)
			}
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

// TestPlacedWordsServeLaterPayloads: a payload's words go back to its run
// once placed, so a run that moves many payloads one at a time allocates
// what one that sends a few does, even for payloads larger than any pooled
// slab, whose words only their own run reuses.
func TestPlacedWordsServeLaterPayloads(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops some of what it is given")
	}
	const few, many = 4, 64
	send, recv := make([]uint64, 2*firstWords<<(wordClasses-1)), make([]uint64, 2*firstWords<<(wordClasses-1))
	run := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := runCells(2, netsim.MPICHGM(), func(r *Rank) {
			// A ping-pong: each payload is placed before the next is read.
			for i := 0; i < n; i++ {
				if r.Me() == 0 {
					r.Send(1, i, 8, whole(&send))
					r.Recv(1, i, 8, Payload{})
				} else {
					r.Recv(0, i, 8, whole(&recv))
					r.Send(0, i, 8, Payload{})
				}
			}
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run(many)
	a, b := run(few), run(many)
	t.Logf("%d payloads of %d words: %d B; %d: %d B", few, len(send), a, many, b)
	if b > a && b-a >= uint64(8*len(send)) {
		t.Fatalf("%d payloads of %d words allocated %d B more than %d: their words were not reused", many, len(send), b-a, few)
	}
}
