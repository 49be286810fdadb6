// Package mpi is an MPI-1 style message-passing runtime that executes on
// the netsim virtual cluster: nonblocking point-to-point with tag matching,
// blocking wrappers, the Alltoall and Barrier collectives, and the
// eager/rendezvous protocol split — with host-driven progress on non-offload
// stacks (the behaviour the paper's transformation exploits: without NIC
// offload, rendezvous data only moves while the host sits inside an MPI
// call).
//
// Payloads are values: a message side holds its buffer (opaque to mpi), an
// offset and a count, and the binding of the rank that posted it (Bind) moves
// the data. A send's buffer is read, into words the run lends, when the
// protocol actually reads it (post time for eager, transfer start for
// rendezvous), and a receive's buffer is written when the receive completes.
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
	"math/bits"
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
	at    netsim.Time
	pay   Payload  // the buffer a send reads or a receive writes
	words []uint64 // send: the data read (nil: none), until it is placed
	match *Request // rendezvous send: the receive it matched
	fl    netsim.Flight
}

// Payload is the data side of a message: Count elements of the buffer Buf
// from element Off. mpi never looks into Buf: the binding of the rank that
// posted the side reads or writes it. A nil Buf moves no data.
type Payload struct {
	Buf   interface{}
	Off   int64
	Count int64
}

// part is the partition of a collective's payload p that goes to or comes
// from rank i: Count elements at Off + i·Count.
func (p Payload) part(i int) Payload {
	p.Off += int64(i) * p.Count
	return p
}

// Binding moves one rank's payloads between its buffers and the words a
// message holds in flight. Its methods run when the protocol reads or writes
// a buffer, possibly inside an engine event, so they record a failure for
// their rank rather than panic.
type Binding interface {
	// Read copies the Count elements p names into words and reports whether
	// it could: a send that reads nothing carries no data.
	Read(p Payload, words []uint64) bool
	// Write stores at p the words read from a send's payload from; words is
	// nil when the send carried no data.
	Write(p, from Payload, words []uint64)
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
	ranks   []Rank // in the run's arena
}

// Rank is the per-process MPI handle used by rank bodies, and that rank's
// matching and progress state. The state is mutated only inside engine
// events or by the (exclusively running) owner proc. A Rank lives in its
// run's arena: like its Requests, it is valid only until its Run returns.
type Rank struct {
	world *World
	mem   *arena  // the run's, shared by its ranks: one runs at a time
	bind  Binding // moves the rank's payloads (Bind)
	proc  *netsim.Proc
	me    int
	np    int
	// By channel (context·np + source): receives in post order, unmatched
	// messages (eager payloads, rendezvous RTSs) in arrival order.
	posted []queue
	unexp  []queue
	ready  []*Request // rendezvous sends whose CTS arrived, awaiting host progress
	// handles holds the program's nonblocking requests (Hold): handle h is
	// handles[h-1], nil once taken; open counts those not taken.
	handles []*Request
	open    int
	coll    []*Request // a collective's requests, while it waits for them
	inWait  bool
}

// Bind sets the binding that moves the rank's payloads: a rank body binds
// before it posts a payload with a buffer.
func (r *Rank) Bind(b Binding) { r.bind = b }

// Hold keeps req, a nonblocking request of the rank, under the next handle
// and returns it: the n-th request held has handle n.
func (r *Rank) Hold(req *Request) int64 {
	r.handles = append(r.handles, req)
	r.open++
	return int64(len(r.handles))
}

// Take returns the request held under handle h and forgets it, or nil once
// it was taken; ok is false when no request was ever held under h.
func (r *Rank) Take(h int64) (req *Request, ok bool) {
	if h < 1 || h > int64(len(r.handles)) {
		return nil, false
	}
	if req = r.handles[h-1]; req != nil {
		r.handles[h-1] = nil
		r.open--
	}
	return req, true
}

// Holding reports whether a request held is not taken yet.
func (r *Rank) Holding() bool { return r.open > 0 }

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

// arena is the memory of one run's ranks, message sides, payload words and
// matching queues. It outlives the run: Run takes one from spare and gives it
// back, cleared, once the engine has stopped every proc, with every request
// and word slab it drew.
type arena struct {
	slabs  []*[]Request   // drawn from spare in turn, by class (see below)
	free   []Request      // the rest of the last slab drawn
	words  []*[]uint64    // word slabs drawn from spare, by class
	left   []uint64       // the rest of the last word slab drawn
	placed [64][][]uint64 // words of placed payloads, by size 2^k, for reuse
	queues []queue        // every queue the arena has held; a run uses a prefix
	ranks  []Rank         // every rank the arena has held, with its tables
	vals   []interface{}  // the closure forms' values (see Isend)
}

// Slab classes: class c holds firstSlab << c requests, and a run's k-th slab
// is of class min(k, slabClasses-1), so a run of a few dozen requests draws
// a slab or two of the smallest classes, not one of the largest.
const (
	firstSlab   = 16
	slabClasses = 5
)

// Word slabs: class c holds firstWords << c words, and a run's k-th word slab
// is of class min(k, wordClasses-1), or the smallest that holds the chunk
// drawing it. A payload of n words takes a chunk of 2^⌈log₂ n⌉, which goes
// back to the arena once placed, so a run's words grow with what it has in
// flight at once. A larger chunk is words of its own, reused by its run only:
// pooled memory counts as live, and slabs of up to 2²⁰ words raised the
// sim-compute workload's peak RSS 12–15 % (its alltoall partitions reach 32K
// words), where slabs of up to 4K words keep it within its spread.
const (
	firstWords  = 512
	wordClasses = 4
)

// spare lends the arenas and the request and word slabs of finished runs to
// new ones. The slabs are lent apart from the arenas, so what the pools hold follows
// the runs in flight: an arena that kept its slabs would hold the largest run
// it ever served while it serves small ones, and the collector counts what
// the pools hold as live (on the sweep-tuned benchmark workload, 2-vCPU Xeon,
// peak RSS rose 10 % with slabs kept by their arenas, 4–5 % lent apart).
var spare struct {
	arenas sync.Pool              // *arena
	slabs  [slabClasses]sync.Pool // *[]Request by class
	words  [wordClasses]sync.Pool // *[]uint64 by class
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

// payload returns n words, to be overwritten in full; never nil.
func (a *arena) payload(n int64) []uint64 {
	if n == 0 {
		return []uint64{}
	}
	k := bits.Len64(uint64(n - 1))
	if placed := a.placed[k]; len(placed) > 0 {
		a.placed[k] = placed[:len(placed)-1]
		return placed[len(placed)-1][:n]
	}
	size := int64(1) << k
	if size > int64(len(a.left)) {
		c := min(len(a.words), wordClasses-1)
		for c < wordClasses && firstWords<<c < size {
			c++
		}
		if c == wordClasses {
			return make([]uint64, n, size)
		}
		box, _ := spare.words[c].Get().(*[]uint64)
		if box == nil {
			slab := make([]uint64, firstWords<<c)
			box = &slab
		}
		a.words = append(a.words, box)
		a.left = *box
	}
	w := a.left[:n:size]
	a.left = a.left[size:]
	return w
}

// reuse takes back the words of a payload that has been placed.
func (a *arena) reuse(w []uint64) {
	if c := cap(w); c > 0 {
		k := bits.TrailingZeros(uint(c))
		a.placed[k] = append(a.placed[k], w)
	}
}

// rankSet returns n ranks, each keeping the tables it had.
func (a *arena) rankSet(n int) []Rank {
	if n > len(a.ranks) {
		a.ranks = append(a.ranks, make([]Rank, n-len(a.ranks))...)
	}
	return a.ranks[:n]
}

// queueSet returns n empty queues.
func (a *arena) queueSet(n int) []queue {
	if n > len(a.queues) {
		a.queues = append(a.queues, make([]queue, n-len(a.queues))...)
	}
	return a.queues[:n]
}

// release clears the requests handed out, the first n queues and the first
// np ranks, and gives the slabs and a back to spare. Word slabs go back as
// they are: a payload's words are written in full before they are read.
func (a *arena) release(n, np int) {
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
	for _, box := range a.words {
		spare.words[bits.Len(uint(len(*box)))-bits.Len(firstWords)].Put(box)
	}
	clear(a.words)
	a.words, a.left = a.words[:0], nil
	for k, placed := range a.placed {
		clear(placed)
		a.placed[k] = placed[:0]
	}
	clear(a.vals)
	a.vals = a.vals[:0]
	for i := range a.ranks[:np] {
		r := &a.ranks[i]
		clear(r.ready)
		clear(r.handles)
		clear(r.coll)
		*r = Rank{ready: r.ready[:0], handles: r.handles[:0], coll: r.coll[:0]}
	}
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
// returns the virtual completion time and statistics. The Ranks and the
// Requests they post are valid until Run returns.
func Run(np int, prof netsim.Profile, body func(r *Rank)) (*RunStats, error) {
	cl := netsim.NewCluster(np, prof)
	w := &World{Cluster: cl}
	mem, _ := spare.arenas.Get().(*arena)
	if mem == nil {
		mem = new(arena)
	}
	per := int(numCtx) * np // a rank's channels
	queues := mem.queueSet(2 * per * np)
	w.ranks = mem.rankSet(np)
	for i := range w.ranks {
		q, rank := queues[2*per*i:2*per*(i+1)], &w.ranks[i]
		*rank = Rank{world: w, mem: mem, me: i, np: np, posted: q[:per:per], unexp: q[per:],
			ready: rank.ready, handles: rank.handles, coll: rank.coll}
		rank.proc = cl.Eng.Spawn(func(*netsim.Proc) { body(rank) })
	}
	end, err := cl.Eng.Run()
	var st *RunStats
	if err == nil {
		st = &RunStats{End: end, Messages: cl.Stat.Messages, Bytes: cl.Stat.Bytes}
		for i := range w.ranks {
			p := w.ranks[i].proc
			st.PerRank = append(st.PerRank, RankStats{
				Finish:  p.Now(),
				Compute: p.ComputeTime,
				Blocked: p.BlockedTime,
			})
		}
	}
	// Every proc has finished or, on a deadlock, unwound: nothing touches
	// the run's ranks, requests or queues any more.
	mem.release(len(queues), np)
	return st, err
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
	m.words = r.read(m.pay)
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
		w.deliver(req, rp)
		rp.done.Complete(now)
	}
}

// deliver writes the words send m read at receive rp's payload, and gives
// them back for the run's later payloads.
func (w *World) deliver(m, rp *Request) {
	r := &w.ranks[rp.dst]
	r.write(rp.pay, m.pay, m.words)
	r.mem.reuse(m.words)
	m.words = nil
}

// The closure forms (Isend, Irecv and Alltoall) hand the value fetch returns
// to place: it waits in the run's arena, and the message's one word holds
// its index there.
type (
	fetchFunc   func() interface{}
	placeFunc   func(interface{})
	fetchAtFunc func(dst int) interface{}
	placeAtFunc func(src int, payload interface{})
)

// read returns the words of a send's payload p, read now: nil when no data
// moves.
func (r *Rank) read(p Payload) []uint64 {
	if p.Buf == nil {
		return nil
	}
	mem := r.mem
	words := mem.payload(p.Count)
	switch f := p.Buf.(type) {
	case fetchFunc:
		mem.vals = append(mem.vals, f())
	case fetchAtFunc:
		mem.vals = append(mem.vals, f(int(p.Off)))
	default:
		if !r.bind.Read(p, words) {
			mem.reuse(words)
			return nil
		}
		return words
	}
	words[0] = uint64(len(mem.vals) - 1)
	return words
}

// write stores the words a send read from its payload from at the receive's
// payload p.
func (r *Rank) write(p, from Payload, words []uint64) {
	switch f := p.Buf.(type) {
	case nil:
	case placeFunc:
		f(r.mem.value(words))
	case placeAtFunc:
		f(int(p.Off), r.mem.value(words))
	default:
		r.bind.Write(p, from, words)
	}
}

// value is the closure form's value words carry (nil: none).
func (a *arena) value(words []uint64) interface{} {
	if len(words) == 0 {
		return nil
	}
	return a.vals[words[0]]
}

// post enters receive rp into matching, at its post time.
func (w *World) post(rp *Request, now netsim.Time) {
	r := &w.ranks[rp.dst]
	ch := r.channel(rp.ctx, rp.src)
	if m := r.unexp[ch].take(rp.tag); m != nil {
		w.matched(m, rp, now)
		return
	}
	r.posted[ch].push(rp)
}

// arrive handles an eager payload or a rendezvous RTS reaching dst.
func (w *World) arrive(m *Request, now netsim.Time) {
	r := &w.ranks[m.dst]
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
	w.deliver(m, rp)
	rp.done.Complete(max(m.at, rp.at))
}

// ctsArrived handles the CTS reaching the sender of m.
func (w *World) ctsArrived(m *Request, now netsim.Time) {
	if w.Cluster.Prof.Offload {
		// The NIC reads the buffer and moves the data by itself.
		m.words = w.ranks[m.src].read(m.pay)
		w.sendData(m, now)
		return
	}
	s := &w.ranks[m.src]
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

// IsendPayload posts a nonblocking send of bytes to dst with the given tag,
// whose data is payload p: the rank's binding reads it once, when the
// protocol reads the buffer.
func (r *Rank) IsendPayload(dst, tag int, bytes int64, p Payload) *Request {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: Isend with negative tag %d", tag))
	}
	return r.isend(userCtx, dst, tag, bytes, p)
}

// Isend is IsendPayload with a closure for a buffer: fetch is invoked
// exactly once, when the protocol reads the buffer, and its value is what
// the matching receive's place gets.
func (r *Rank) Isend(dst, tag int, bytes int64, fetch func() interface{}) *Request {
	return r.IsendPayload(dst, tag, bytes, Payload{Buf: fetchFunc(fetch), Count: 1})
}

func (r *Rank) isend(c ctx, dst, tag int, bytes int64, p Payload) *Request {
	if dst < 0 || dst >= r.np {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d", dst))
	}
	r.progress()
	cl := r.world.Cluster
	req := r.mem.request()
	*req = Request{w: r.world, ctx: c, src: r.me, dst: dst, tag: tag, bytes: bytes, pay: p}
	r.proc.Advance(cl.Prof.OSend)

	if bytes <= cl.Prof.EagerThreshold {
		// Eager: host packs now; the send buffer is immediately reusable.
		r.proc.Advance(cl.CopyCost(bytes))
		req.words = r.read(p)
		now := r.proc.Now()
		req.done.Complete(now)
		req.phase = eagerData
		cl.Send(&req.fl, r.me, dst, bytes, now, req)
		return req
	}

	// Rendezvous: an RTS travels to the receiver; data moves on CTS —
	// autonomously with offload, at the next host MPI call without.
	req.phase = rtsArrive
	cl.Send(&req.fl, r.me, dst, cl.Prof.CtrlBytes, r.proc.Now(), req)
	return req
}

// IrecvPayload posts a nonblocking receive from src (no wildcard sources)
// with the given tag, into payload p: the rank's binding writes it when the
// data arrives.
func (r *Rank) IrecvPayload(src, tag int, bytes int64, p Payload) *Request {
	return r.irecv(userCtx, src, tag, bytes, p)
}

// Irecv is IrecvPayload with a closure for a buffer: place is invoked with
// the value the matching send's fetch returned when the data arrives.
func (r *Rank) Irecv(src, tag int, bytes int64, place func(interface{})) *Request {
	return r.IrecvPayload(src, tag, bytes, Payload{Buf: placeFunc(place), Count: 1})
}

func (r *Rank) irecv(c ctx, src, tag int, bytes int64, p Payload) *Request {
	if src < 0 || src >= r.np {
		panic(fmt.Sprintf("mpi: Irecv from invalid rank %d", src))
	}
	r.progress()
	r.proc.Advance(r.world.Cluster.Prof.ORecv)
	now := r.proc.Now()
	req := r.mem.request()
	*req = Request{w: r.world, recv: true, ctx: c, src: src, dst: r.me, tag: tag, bytes: bytes, at: now, pay: p}
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
func (r *Rank) Send(dst, tag int, bytes int64, p Payload) {
	r.Wait(r.IsendPayload(dst, tag, bytes, p))
}

// Recv is the blocking receive wrapper.
func (r *Rank) Recv(src, tag int, bytes int64, p Payload) {
	r.Wait(r.IrecvPayload(src, tag, bytes, p))
}
