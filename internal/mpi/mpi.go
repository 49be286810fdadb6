// Package mpi is an MPI-1 style message-passing runtime that executes on
// the netsim virtual cluster: nonblocking point-to-point with tag matching,
// blocking wrappers, the Alltoall and Barrier collectives, and the
// eager/rendezvous protocol split — with host-driven progress on non-offload
// stacks (the behaviour the paper's transformation exploits: without NIC
// offload, rendezvous data only moves while the host sits inside an MPI
// call).
//
// Payloads move via fetch/place callbacks: fetch snapshots the send buffer
// when the protocol actually reads it (post time for eager, transfer start
// for rendezvous), and place stores the payload when the receive completes.
// This timing-accurate snapshotting means a transformed program that
// overwrites an in-flight buffer produces wrong answers in simulation just
// as it would on hardware.
//
// Matching follows MPI's rules, per channel (context and source: there is
// no wildcard source); collectives match in a context of their own, so no
// user receive takes their traffic (docs/execution-tiers.md, "The
// simulator").
package mpi

import (
	"fmt"
	"sync"

	"repro/internal/netsim"
)

// AnyTag matches any tag on a receive.
const AnyTag = -1

// ctx is a matching context: a receive matches only messages sent in its own.
type ctx uint8

const (
	userCtx ctx = iota // point-to-point calls of the program
	collCtx            // the collectives' internal traffic
	numCtx
)

// Request is a nonblocking operation handle and the whole state of its side
// of one message, and the engine event its protocol steps schedule: a message
// side costs this one object. A Request is valid only until the Run that
// posted it returns: its memory then goes to later runs (spare), so nothing
// may keep a *Request past its Run.
type Request struct {
	done  netsim.Completion
	w     *World
	recv  bool
	ctx   ctx
	phase phase // a send's next event
	src   int
	dst   int
	tag   int
	bytes int64
	// at is a receive's post time, or a send's arrival time at dst while it
	// waits unmatched.
	at      netsim.Time
	place   func(interface{})  // receive: stores the payload
	fetch   func() interface{} // rendezvous send: reads the buffer when the data leaves
	payload interface{}        // send: the data read, until it is placed
	match   *Request           // rendezvous send: the receive it matched
	fl      netsim.Flight
}

// phase is what a send's next Fire means; one Flight carries RTS, CTS, data.
type phase uint8

const (
	eagerData phase = iota // the eager payload reaches dst
	rtsArrive              // the rendezvous RTS reaches dst
	ctsArrive              // the CTS reaches the sender
	dataKick               // host progress hands the data to the NIC
	bulkData               // the rendezvous data reaches dst
)

// World couples a simulated cluster with the ranks' MPI state.
type World struct {
	Cluster *netsim.Cluster
	ranks   []*Rank
}

// Rank is the per-process MPI handle used by rank bodies, and that rank's
// matching and progress state. The state is mutated only inside engine
// events or by the (exclusively running) owner proc.
type Rank struct {
	world *World
	mem   *arena // the run's, shared by its ranks: one runs at a time
	proc  *netsim.Proc
	me    int
	np    int
	// By channel (context·np + source): receives in post order, unmatched
	// messages (eager payloads, rendezvous RTSs) in arrival order.
	posted []queue
	unexp  []queue
	ready  []*Request // rendezvous sends whose CTS arrived, awaiting host progress
	inWait bool
}

// queue is a FIFO of one channel's posted receives or unmatched messages.
type queue struct {
	items []*Request
	head  int
}

func (q *queue) push(req *Request) {
	if n := len(q.items); n == cap(q.items) && q.head > 0 && q.head >= n/2 {
		// Slide the live entries down instead of growing.
		live := copy(q.items, q.items[q.head:])
		clear(q.items[live:])
		q.items, q.head = q.items[:live], 0
	}
	q.items = append(q.items, req)
}

// take removes and returns the first entry whose tag matches tag (only
// receives carry AnyTag), or nil; in-order traffic finds it at the head.
func (q *queue) take(tag int) *Request {
	for i := q.head; i < len(q.items); i++ {
		req := q.items[i]
		if req.tag != tag && req.tag != AnyTag && tag != AnyTag {
			continue
		}
		if i == q.head {
			q.items[i] = nil
			if q.head++; q.head == len(q.items) {
				q.items, q.head = q.items[:0], 0
			}
		} else {
			copy(q.items[i:], q.items[i+1:])
			q.items[len(q.items)-1] = nil
			q.items = q.items[:len(q.items)-1]
		}
		return req
	}
	return nil
}

// arena is the memory of one run's message sides and matching queues. It
// outlives the run: Run takes one from spare and gives it back, cleared,
// once the engine has stopped every proc, with every request slab it drew.
type arena struct {
	slabs  []*[]Request // drawn from spare in turn, by class (see below)
	free   []Request    // the rest of the last slab drawn
	queues []queue      // every queue the arena has held; a run uses a prefix
}

// Slab classes: class c holds firstSlab << c requests, and a run's k-th slab
// is of class min(k, slabClasses-1), so a run of a few dozen requests draws
// a slab or two of the smallest classes, not one of the largest.
const (
	firstSlab   = 16
	slabClasses = 5
)

// spare lends the arenas and request slabs of finished runs to new ones.
// The slabs are lent apart from the arenas, so what the pools hold follows
// the runs in flight: an arena that kept its slabs would hold the largest run
// it ever served while it serves small ones, and the collector counts what
// the pools hold as live (on the sweep-tuned benchmark workload, 2-vCPU Xeon,
// peak RSS rose 10 % with slabs kept by their arenas, 4–5 % lent apart).
var spare struct {
	arenas sync.Pool              // *arena
	slabs  [slabClasses]sync.Pool // *[]Request by class
}

// request returns a zero Request.
func (a *arena) request() *Request {
	if len(a.free) == 0 {
		c := min(len(a.slabs), slabClasses-1)
		box, _ := spare.slabs[c].Get().(*[]Request)
		if box == nil {
			slab := make([]Request, firstSlab<<c)
			box = &slab
		}
		a.slabs = append(a.slabs, box)
		a.free = *box
	}
	req := &a.free[0]
	a.free = a.free[1:]
	return req
}

// queueSet returns n empty queues.
func (a *arena) queueSet(n int) []queue {
	if n > len(a.queues) {
		a.queues = append(a.queues, make([]queue, n-len(a.queues))...)
	}
	return a.queues[:n]
}

// release clears the requests handed out and the first n queues, and gives
// the slabs and a back to spare.
func (a *arena) release(n int) {
	for i, box := range a.slabs {
		used := *box
		if i == len(a.slabs)-1 {
			used = used[:len(used)-len(a.free)]
		}
		clear(used)
		spare.slabs[min(i, slabClasses-1)].Put(box)
	}
	clear(a.slabs)
	a.slabs, a.free = a.slabs[:0], nil
	for i := range a.queues[:n] {
		q := &a.queues[i]
		clear(q.items)
		q.items, q.head = q.items[:0], 0
	}
	spare.arenas.Put(a)
}

// channel indexes the queues of the rank receiving from src in context c.
func (r *Rank) channel(c ctx, src int) int { return int(c)*r.np + src }

// Me returns the rank id.
func (r *Rank) Me() int { return r.me }

// NP returns the communicator size.
func (r *Rank) NP() int { return r.np }

// Now returns the rank's virtual clock (MPI_Wtime).
func (r *Rank) Now() netsim.Time { return r.proc.Now() }

// Compute advances the rank's clock by d (models local computation).
func (r *Rank) Compute(d netsim.Time) { r.proc.Advance(d) }

// RunStats reports one run's outcome.
type RunStats struct {
	End      netsim.Time // completion time of the slowest rank
	PerRank  []RankStats
	Messages int64
	Bytes    int64
}

// RankStats is per-rank accounting.
type RankStats struct {
	Finish  netsim.Time
	Compute netsim.Time
	Blocked netsim.Time
}

// Run executes body on np simulated ranks over the given profile and
// returns the virtual completion time and statistics. The Requests the ranks
// post are valid until Run returns.
func Run(np int, prof netsim.Profile, body func(r *Rank)) (*RunStats, error) {
	cl := netsim.NewCluster(np, prof)
	w := &World{Cluster: cl, ranks: make([]*Rank, np)}
	mem, _ := spare.arenas.Get().(*arena)
	if mem == nil {
		mem = new(arena)
	}
	per := int(numCtx) * np // a rank's channels
	queues := mem.queueSet(2 * per * np)
	for i := 0; i < np; i++ {
		q := queues[2*per*i : 2*per*(i+1)]
		rank := &Rank{world: w, mem: mem, me: i, np: np, posted: q[:per:per], unexp: q[per:]}
		w.ranks[i] = rank
		rank.proc = cl.Eng.Spawn(func(*netsim.Proc) { body(rank) })
	}
	end, err := cl.Eng.Run()
	// Every proc has finished or, on a deadlock, unwound: nothing touches
	// the run's requests or queues any more.
	mem.release(len(queues))
	if err != nil {
		return nil, err
	}
	st := &RunStats{End: end, Messages: cl.Stat.Messages, Bytes: cl.Stat.Bytes}
	for _, r := range w.ranks {
		p := r.proc
		st.PerRank = append(st.PerRank, RankStats{
			Finish:  p.Now(),
			Compute: p.ComputeTime,
			Blocked: p.BlockedTime,
		})
	}
	return st, nil
}

// progress runs the host progress engine: entered on every MPI call, it
// kicks rendezvous transfers whose CTS has arrived (non-offload stacks).
func (r *Rank) progress() {
	if r.world.Cluster.Prof.Offload {
		return
	}
	for _, m := range r.ready {
		r.kick(m, false)
	}
	r.ready = r.ready[:0]
}

// kick starts the bulk data movement of rendezvous send m from this
// (sending) host. inEvent marks calls from engine events (host blocked in a
// wait): the copy cost then delays the transfer instead of advancing the
// blocked proc.
func (r *Rank) kick(m *Request, inEvent bool) {
	var start netsim.Time
	copyCost := r.world.Cluster.CopyCost(m.bytes)
	if inEvent {
		start = r.proc.Now() + copyCost
	} else {
		r.proc.Advance(copyCost)
		start = r.proc.Now()
	}
	m.payload, m.fetch = m.fetch(), nil
	m.phase = dataKick
	r.world.Cluster.Eng.Schedule(start, m)
}

// Fire advances the message side's protocol; only the engine calls it.
func (req *Request) Fire(now netsim.Time) {
	w := req.w
	if req.recv {
		w.post(req, now)
		return
	}
	switch req.phase {
	case eagerData, rtsArrive:
		w.arrive(req, now)
	case ctsArrive:
		w.ctsArrived(req, now)
	case dataKick:
		w.sendData(req, now)
	case bulkData:
		rp := req.match
		rp.place(req.payload)
		req.payload = nil
		rp.done.Complete(now)
	}
}

// post enters receive rp into matching, at its post time.
func (w *World) post(rp *Request, now netsim.Time) {
	r := w.ranks[rp.dst]
	ch := r.channel(rp.ctx, rp.src)
	if m := r.unexp[ch].take(rp.tag); m != nil {
		w.matched(m, rp, now)
		return
	}
	r.posted[ch].push(rp)
}

// arrive handles an eager payload or a rendezvous RTS reaching dst.
func (w *World) arrive(m *Request, now netsim.Time) {
	r := w.ranks[m.dst]
	ch := r.channel(m.ctx, m.src)
	m.at = now
	if rp := r.posted[ch].take(m.tag); rp != nil {
		w.matched(m, rp, now)
		return
	}
	r.unexp[ch].push(m)
}

// matched pairs message m with receive rp, inside the event at now that
// found the pair.
func (w *World) matched(m, rp *Request, now netsim.Time) {
	if m.phase == rtsArrive {
		// Clear to send: on its arrival the data transfer starts (offload)
		// or is queued for host progress (non-offload).
		m.match = rp
		m.phase = ctsArrive
		w.Cluster.Send(&m.fl, m.dst, m.src, w.Cluster.Prof.CtrlBytes, now, m)
		return
	}
	rp.place(m.payload)
	m.payload = nil
	rp.done.Complete(max(m.at, rp.at))
}

// ctsArrived handles the CTS reaching the sender of m.
func (w *World) ctsArrived(m *Request, now netsim.Time) {
	if w.Cluster.Prof.Offload {
		// The NIC reads the buffer and moves the data by itself.
		m.payload, m.fetch = m.fetch(), nil
		w.sendData(m, now)
		return
	}
	s := w.ranks[m.src]
	if s.inWait {
		// The host is polling inside a blocking MPI call: kick now.
		s.kick(m, true)
		return
	}
	s.ready = append(s.ready, m)
}

// sendData hands rendezvous send m's data to the network at now: the send
// buffer is the stack's from here on.
func (w *World) sendData(m *Request, now netsim.Time) {
	m.done.Complete(now)
	m.phase = bulkData
	w.Cluster.Send(&m.fl, m.src, m.dst, m.bytes, now, m)
}

// Isend posts a nonblocking send of bytes to dst with the given tag. fetch
// must return the payload; it is invoked exactly once, when the protocol
// reads the buffer.
func (r *Rank) Isend(dst, tag int, bytes int64, fetch func() interface{}) *Request {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: Isend with negative tag %d", tag))
	}
	return r.isend(userCtx, dst, tag, bytes, fetch)
}

func (r *Rank) isend(c ctx, dst, tag int, bytes int64, fetch func() interface{}) *Request {
	if dst < 0 || dst >= r.np {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d", dst))
	}
	r.progress()
	cl := r.world.Cluster
	req := r.mem.request()
	*req = Request{w: r.world, ctx: c, src: r.me, dst: dst, tag: tag, bytes: bytes}
	r.proc.Advance(cl.Prof.OSend)

	if bytes <= cl.Prof.EagerThreshold {
		// Eager: host packs now; the send buffer is immediately reusable.
		r.proc.Advance(cl.CopyCost(bytes))
		req.payload = fetch()
		now := r.proc.Now()
		req.done.Complete(now)
		req.phase = eagerData
		cl.Send(&req.fl, r.me, dst, bytes, now, req)
		return req
	}

	// Rendezvous: an RTS travels to the receiver; data moves on CTS —
	// autonomously with offload, at the next host MPI call without.
	req.fetch = fetch
	req.phase = rtsArrive
	cl.Send(&req.fl, r.me, dst, cl.Prof.CtrlBytes, r.proc.Now(), req)
	return req
}

// Irecv posts a nonblocking receive from src (no wildcard sources) with the
// given tag; place is invoked with the payload when the data arrives.
func (r *Rank) Irecv(src, tag int, bytes int64, place func(interface{})) *Request {
	return r.irecv(userCtx, src, tag, bytes, place)
}

func (r *Rank) irecv(c ctx, src, tag int, bytes int64, place func(interface{})) *Request {
	if src < 0 || src >= r.np {
		panic(fmt.Sprintf("mpi: Irecv from invalid rank %d", src))
	}
	r.progress()
	r.proc.Advance(r.world.Cluster.Prof.ORecv)
	now := r.proc.Now()
	req := r.mem.request()
	*req = Request{w: r.world, recv: true, ctx: c, src: src, dst: r.me, tag: tag, bytes: bytes, at: now, place: place}
	// Matching is engine-side state: mutate it in an event at post time.
	r.world.Cluster.Eng.Schedule(now, req)
	return req
}

// Wait blocks until the request completes, charging the host costs that
// accrue at completion time (eager unpack, TCP receive copies). The
// per-message overhead o was already charged at post time.
func (r *Rank) Wait(req *Request) {
	r.progress()
	r.inWait = true
	kind := "send"
	if req.recv {
		kind = "recv"
	}
	r.proc.Wait(&req.done, kind)
	r.inWait = false
	prof := r.world.Cluster.Prof
	if req.recv && (req.bytes <= prof.EagerThreshold || !prof.Offload) {
		r.proc.Advance(r.world.Cluster.CopyCost(req.bytes))
	}
}

// Waitall waits for every request in order.
func (r *Rank) Waitall(reqs []*Request) {
	for _, req := range reqs {
		if req != nil {
			r.Wait(req)
		}
	}
}

// Send is the blocking send wrapper.
func (r *Rank) Send(dst, tag int, bytes int64, fetch func() interface{}) {
	r.Wait(r.Isend(dst, tag, bytes, fetch))
}

// Recv is the blocking receive wrapper.
func (r *Rank) Recv(src, tag int, bytes int64, place func(interface{})) {
	r.Wait(r.Irecv(src, tag, bytes, place))
}
