// Package netsim is the discrete-event cluster simulator the evaluation
// runs on: virtual time, cooperatively scheduled rank processes, and a
// LogGP-flavoured network cost model with two profiles — an MPICH-over-TCP
// style stack whose large-message progress requires the host CPU inside MPI
// calls, and an MPICH-GM style stack whose NIC progresses communication
// autonomously (RDMA offload). The difference between the two is exactly
// the mechanism the paper's pre-push transformation exploits.
package netsim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Time is virtual time in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// String renders the time in engineering units.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(t))
}

// Seconds converts to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// event is one scheduled callback.
type event struct {
	at  Time
	seq int64
	fn  func(now Time)
}

// eventHeap is a binary min-heap of events by (at, seq). The order is total
// (seq is unique), so the pop sequence does not depend on the heap's shape.
// Events are held by value: scheduling one allocates nothing beyond the
// slice's growth.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	q := *h
	if len(q) == cap(q) {
		// Double, where append would grow a large slice by a quarter and
		// copy a fine-tiled run's few thousand in-flight events five times
		// over.
		q = append(make(eventHeap, 0, max(64, 2*cap(q))), q...)
	}
	q = append(q, ev)
	*h = q
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the callback reference
	q = q[:n]
	*h = q
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top
}

// procState is a process's scheduling state.
type procState int

const (
	procReady procState = iota
	procRunning
	procBlocked
	procDone
)

// Proc is one simulated rank: a goroutine whose virtual clock advances via
// Advance and which interacts with the network only through engine events.
type Proc struct {
	ID  int
	eng *Engine

	now    Time
	state  procState
	resume chan struct{}
	yield  chan struct{}

	// blockReason describes what the proc is waiting for (deadlock
	// diagnostics).
	blockReason string

	// Stats.
	ComputeTime Time // time spent in Advance
	BlockedTime Time // time gained while blocked (waiting)
}

// Now returns the process's local virtual time.
func (p *Proc) Now() Time { return p.now }

// Advance models local computation: the clock moves forward without
// yielding control (no other process can be affected by pure computation).
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic("netsim: negative Advance")
	}
	p.now += d
	p.ComputeTime += d
}

// Engine is the discrete-event scheduler. Exactly one process runs at a
// time; all cross-process effects are timestamped events processed in
// global time order, which makes runs deterministic.
type Engine struct {
	evq   eventHeap
	seq   int64
	procs []*Proc
	// live counts proc goroutines that have not exited, so a deadlocked Run
	// can wait for the ones it unwinds.
	live sync.WaitGroup
	// Trace, when non-nil, receives one line per scheduling decision.
	Trace func(string)
}

// NewEngine returns an empty engine.
func NewEngine() *Engine { return &Engine{} }

// Spawn creates a process running fn. Must be called before Run.
func (e *Engine) Spawn(fn func(p *Proc)) *Proc {
	p := &Proc{
		ID:     len(e.procs),
		eng:    e,
		state:  procReady,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	e.procs = append(e.procs, p)
	e.live.Add(1)
	go func() {
		defer e.live.Done()
		p.park()
		fn(p)
		p.state = procDone
		p.yield <- struct{}{}
	}()
	return p
}

// At schedules fn at time t (which must not be in the engine's past when
// it pops; the heap keeps order regardless).
func (e *Engine) At(t Time, fn func(now Time)) {
	e.seq++
	e.evq.push(event{at: t, seq: e.seq, fn: fn})
}

// Run drives the simulation until every process is done. It returns the
// final virtual time (max over processes) or an error on deadlock; either
// way no process goroutine is left parked when it returns.
func (e *Engine) Run() (Time, error) {
	for {
		// Earliest ready process.
		var next *Proc
		for _, p := range e.procs {
			if p.state == procReady && (next == nil || p.now < next.now ||
				(p.now == next.now && p.ID < next.ID)) {
				next = p
			}
		}
		haveEvent := len(e.evq) > 0
		switch {
		case next != nil && (!haveEvent || next.now <= e.evq[0].at):
			if e.Trace != nil {
				e.Trace(fmt.Sprintf("run p%d @%s", next.ID, next.now))
			}
			next.state = procRunning
			next.resume <- struct{}{}
			<-next.yield
		case haveEvent:
			ev := e.evq.pop()
			if e.Trace != nil {
				e.Trace(fmt.Sprintf("event @%s", ev.at))
			}
			ev.fn(ev.at)
		default:
			// No events, no ready procs.
			done := true
			var blocked []string
			for _, p := range e.procs {
				if p.state != procDone {
					done = false
					blocked = append(blocked, fmt.Sprintf("p%d @%s: %s", p.ID, p.now, p.blockReason))
				}
			}
			if done {
				var end Time
				for _, p := range e.procs {
					if p.now > end {
						end = p.now
					}
				}
				return end, nil
			}
			sort.Strings(blocked)
			// Nothing can ever resume the parked procs: poison their resume
			// channels so each goroutine unwinds (see park) instead of leaking
			// with everything it references, and wait until they are gone.
			for _, p := range e.procs {
				if p.state != procDone {
					close(p.resume)
				}
			}
			e.live.Wait()
			return 0, fmt.Errorf("netsim: deadlock; blocked processes: %v", blocked)
		}
	}
}

// Completion is a one-shot future: events complete it, processes wait on it.
type Completion struct {
	eng     *Engine
	done    bool
	at      Time
	waiters []*Proc
}

// NewCompletion returns an incomplete completion.
func (e *Engine) NewCompletion() *Completion { return &Completion{eng: e} }

// Done reports whether the completion fired. Note: processes may observe
// this only at MPI-layer points; the value changes only inside events.
func (c *Completion) Done() bool { return c.done }

// When returns the completion time; valid only when Done.
func (c *Completion) When() Time { return c.at }

// Complete fires the completion at time t, waking all waiters.
func (c *Completion) Complete(t Time) {
	if c.done {
		panic("netsim: double Complete")
	}
	c.done = true
	c.at = t
	for _, p := range c.waiters {
		if t > p.now {
			p.BlockedTime += t - p.now
			p.now = t
		}
		p.state = procReady
		p.blockReason = ""
	}
	c.waiters = nil
}

// Wait blocks p until the completion fires, advancing p's clock to the
// completion time if later. reason is used in deadlock diagnostics.
func (p *Proc) Wait(c *Completion, reason string) {
	if c.done {
		if c.at > p.now {
			p.BlockedTime += c.at - p.now
			p.now = c.at
		}
		return
	}
	c.waiters = append(c.waiters, p)
	p.blockReason = reason
	p.block()
}

// park waits for the engine to resume p. A closed resume channel is the
// engine's poison after a deadlock: the goroutine unwinds (running its
// deferred calls) and never returns into the rank body.
func (p *Proc) park() {
	if _, ok := <-p.resume; !ok {
		runtime.Goexit()
	}
}

// block yields control to the engine until the proc is made ready again.
func (p *Proc) block() {
	p.state = procBlocked
	p.yield <- struct{}{}
	p.park()
}

// Yield gives the engine a chance to process events up to p's current time
// without blocking p on anything; p re-enters the ready queue at its own
// time. Used sparingly (e.g. to make trace output deterministic in tests).
func (p *Proc) Yield() {
	p.state = procReady
	p.yield <- struct{}{}
	p.park()
}
