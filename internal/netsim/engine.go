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

// Event is something scheduled on the engine; Fire runs at its time, in
// event context. Scheduling a pointer to an existing record allocates nothing.
type Event interface {
	Fire(now Time)
}

// funcEvent adapts a callback to Event (allocation-free: a func is a pointer).
type funcEvent func(now Time)

func (f funcEvent) Fire(now Time) { f(now) }

// Events fire in (at, seq) order, seq numbering the scheduling calls. What
// a proc schedules while it runs goes to its lane, a FIFO that stays sorted
// because a proc schedules at or after its own clock; the rest goes to the
// heap. Run fires the least of the heap top and the lane heads
// (docs/execution-tiers.md, "The simulator").

// stamp is an event's position in the total order.
type stamp struct {
	at  Time
	seq int64
}

func (a stamp) before(b stamp) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// heapEntry is pointer-free, so sifting needs no write barriers.
type heapEntry struct {
	stamp
	slot int32
}

// eventHeap is a binary min-heap of stamps; callbacks sit in a slot table
// whose free list lets a steady state of scheduling and firing grow nothing.
type eventHeap struct {
	q     []heapEntry
	slots []Event
	free  []int32
}

func (h *eventHeap) push(s stamp, ev Event) {
	var slot int32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.slots[slot] = ev
	} else {
		slot = int32(len(h.slots))
		h.slots = append(h.slots, ev)
	}
	q := append(h.q, heapEntry{s, slot})
	h.q = q
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(q[parent].stamp) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes the earliest entry and returns its stamp and callback.
func (h *eventHeap) pop() (stamp, Event) {
	q := h.q
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	h.q = q
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q[l].before(q[least].stamp) {
			least = l
		}
		if r := 2*i + 2; r < n && q[r].before(q[least].stamp) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	ev := h.slots[top.slot]
	h.slots[top.slot] = nil
	h.free = append(h.free, top.slot)
	return top.stamp, ev
}

// laneEntry is one event in a proc's lane.
type laneEntry struct {
	stamp
	ev Event
}

// lane is a FIFO ring of events in stamp order; len(buf) is zero or a power
// of two.
type lane struct {
	buf  []laneEntry
	head int
	n    int
}

// front is the earliest queued event; the lane must not be empty.
func (l *lane) front() stamp { return l.buf[l.head].stamp }

// accepts reports whether an event at t, stamped after everything queued,
// keeps the lane sorted.
func (l *lane) accepts(t Time) bool {
	return l.n == 0 || l.buf[(l.head+l.n-1)&(len(l.buf)-1)].at <= t
}

// push appends x; a full ring grows to the larger of twice its size and
// hint.
func (l *lane) push(x laneEntry, hint int) {
	if l.n == len(l.buf) {
		grown := make([]laneEntry, max(16, 2*len(l.buf), hint))
		for i := 0; i < l.n; i++ {
			grown[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
		}
		l.buf, l.head = grown, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = x
	l.n++
}

func (l *lane) pop() (stamp, Event) {
	x := l.buf[l.head]
	l.buf[l.head].ev = nil // drop the reference
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return x.stamp, x.ev
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
	ID int

	now    Time
	state  procState
	resume chan struct{}
	yield  chan struct{}
	lane   lane // events scheduled while this proc ran

	// blockReason describes what the proc is waiting for (deadlock
	// diagnostics); nextWaiter links the waiters of that completion.
	blockReason string
	nextWaiter  *Proc

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
	heap  eventHeap
	seq   int64
	procs []*Proc
	// running is the proc executing now, nil in event context.
	running *Proc
	// laneCap is the largest lane grown so far: ranks of one program fill
	// theirs alike, so a growing lane starts there instead of doubling up.
	laneCap int
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
// it fires; the queues keep order regardless).
func (e *Engine) At(t Time, fn func(now Time)) { e.Schedule(t, funcEvent(fn)) }

// Schedule schedules ev at time t, in the same order as At.
func (e *Engine) Schedule(t Time, ev Event) {
	e.seq++
	s := stamp{t, e.seq}
	if p := e.running; p != nil && p.lane.accepts(t) {
		p.lane.push(laneEntry{s, ev}, e.laneCap)
		e.laneCap = max(e.laneCap, len(p.lane.buf))
		return
	}
	e.heap.push(s, ev)
}

// Run drives the simulation until every process is done. It returns the
// final virtual time (max over processes) or an error on deadlock; either
// way no process goroutine is left parked when it returns.
func (e *Engine) Run() (Time, error) {
	for {
		// The earliest ready process (procs are in ID order: the lowest ID
		// wins a tie) and the proc holding the earliest lane head.
		var next, lead *Proc
		for _, p := range e.procs {
			if p.state == procReady && (next == nil || p.now < next.now) {
				next = p
			}
			if p.lane.n > 0 && (lead == nil || p.lane.front().before(lead.lane.front())) {
				lead = p
			}
		}
		// The earliest pending event: the heap top or lead's lane head.
		haveEvent, fromLane := len(e.heap.q) > 0, false
		var first stamp
		if haveEvent {
			first = e.heap.q[0].stamp
		}
		if lead != nil && (!haveEvent || lead.lane.front().before(first)) {
			first, haveEvent, fromLane = lead.lane.front(), true, true
		}
		switch {
		case next != nil && (!haveEvent || next.now <= first.at):
			if e.Trace != nil {
				e.Trace(fmt.Sprintf("run p%d @%s", next.ID, next.now))
			}
			next.state = procRunning
			e.running = next
			next.resume <- struct{}{}
			<-next.yield
			e.running = nil
		case haveEvent:
			var ev Event
			if fromLane {
				first, ev = lead.lane.pop()
			} else {
				first, ev = e.heap.pop()
			}
			if e.Trace != nil {
				e.Trace(fmt.Sprintf("event @%s", first.at))
			}
			ev.Fire(first.at)
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

// Completion is a one-shot future: events complete it, processes wait on
// it. The zero value is an incomplete completion.
type Completion struct {
	at      Time
	waiters *Proc // linked through Proc.nextWaiter: a proc waits on one thing at a time
	done    bool
}

// NewCompletion returns an incomplete completion.
func (e *Engine) NewCompletion() *Completion { return &Completion{} }

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
	for p := c.waiters; p != nil; {
		next := p.nextWaiter
		p.nextWaiter = nil
		if t > p.now {
			p.BlockedTime += t - p.now
			p.now = t
		}
		p.state = procReady
		p.blockReason = ""
		p = next
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
	p.nextWaiter, c.waiters = c.waiters, p
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
