// Package mpi is an MPI-1 style message-passing runtime that executes on
// the netsim virtual cluster: nonblocking point-to-point with tag matching,
// blocking wrappers, Alltoall/Barrier/Allreduce/Allgather/Bcast
// collectives, and the eager/rendezvous protocol split — with host-driven
// progress on non-offload stacks (the behaviour the paper's transformation
// exploits: without NIC offload, rendezvous data only moves while the host
// sits inside an MPI call).
//
// Payloads move via fetch/place callbacks: fetch snapshots the send buffer
// when the protocol actually reads it (post time for eager, transfer start
// for rendezvous), and place stores the payload when the receive completes.
// This timing-accurate snapshotting means a transformed program that
// overwrites an in-flight buffer produces wrong answers in simulation just
// as it would on hardware.
package mpi

import (
	"fmt"

	"repro/internal/netsim"
)

// AnyTag matches any tag on a receive.
const AnyTag = -1

// Request is a nonblocking operation handle.
type Request struct {
	done  *netsim.Completion
	recv  bool
	bytes int64
	eager bool
	kind  string
}

// World couples a simulated cluster with per-rank MPI endpoint state.
type World struct {
	Cluster *netsim.Cluster
	eps     []*endpoint
}

// endpoint is per-rank matching and progress state; mutated only inside
// engine events or by the (exclusively running) owner proc.
type endpoint struct {
	world  *World
	rank   int
	owner  *Rank // the rank this endpoint belongs to
	proc   *netsim.Proc
	posted []*recvPost
	unexp  []*inbound
	ready  []*pendingTx // rendezvous transfers awaiting host progress
	inWait bool
}

// recvPost is a posted receive awaiting a match.
type recvPost struct {
	src, tag int
	bytes    int64
	place    func(interface{})
	postedAt netsim.Time
	req      *Request
}

// inbound is an arrived-but-unmatched message (eager payload) or an
// arrived rendezvous RTS.
type inbound struct {
	src, tag  int
	bytes     int64
	arrivedAt netsim.Time
	payload   interface{} // eager only
	rdv       *pendingTx  // rendezvous only
}

// pendingTx is one rendezvous transfer in flight.
type pendingTx struct {
	src, dst, tag int
	bytes         int64
	fetch         func() interface{}
	sendReq       *Request
	recvReq       *recvPost // set once matched
	ctsSent       bool
	kicked        bool
}

// Rank is the per-process MPI handle used by rank bodies.
type Rank struct {
	world *World
	ep    *endpoint
	proc  *netsim.Proc
	me    int
	np    int
}

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
// returns the virtual completion time and statistics.
func Run(np int, prof netsim.Profile, body func(r *Rank)) (*RunStats, error) {
	cl := netsim.NewCluster(np, prof)
	w := &World{Cluster: cl}
	ranks := make([]*Rank, np)
	for i := 0; i < np; i++ {
		ep := &endpoint{world: w, rank: i}
		w.eps = append(w.eps, ep)
		rank := &Rank{world: w, ep: ep, me: i, np: np}
		ep.owner = rank
		ranks[i] = rank
		cl.Eng.Spawn(func(p *netsim.Proc) {
			rank.proc = p
			ep.proc = p
			body(rank)
		})
	}
	end, err := cl.Eng.Run()
	if err != nil {
		return nil, err
	}
	st := &RunStats{End: end, Messages: cl.Stat.Messages, Bytes: cl.Stat.Bytes}
	for i := 0; i < np; i++ {
		p := ranks[i].proc
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
	ep := r.ep
	for _, tx := range ep.ready {
		r.kickTx(tx, false)
	}
	ep.ready = ep.ready[:0]
}

// kickTx starts the bulk data movement of a rendezvous transfer from this
// (sending) host. inEvent marks calls from engine events (host blocked in a
// wait): the copy cost then delays the transfer instead of advancing the
// blocked proc.
func (r *Rank) kickTx(tx *pendingTx, inEvent bool) {
	if tx.kicked {
		return
	}
	tx.kicked = true
	w := r.world
	var start netsim.Time
	copyCost := w.Cluster.CopyCost(tx.bytes)
	if inEvent {
		start = r.proc.Now() + copyCost
	} else {
		r.proc.Advance(copyCost)
		start = r.proc.Now()
	}
	payload := tx.fetch()
	w.Cluster.Eng.At(start, func(now netsim.Time) {
		tx.sendReq.done.Complete(now) // buffer handed off to the stack
		w.Cluster.Transfer(tx.src, tx.dst, tx.bytes, now, func(t netsim.Time) {
			w.deliverData(tx, payload, t)
		})
	})
}

// deliverData completes a matched rendezvous receive.
func (w *World) deliverData(tx *pendingTx, payload interface{}, t netsim.Time) {
	rp := tx.recvReq
	if rp == nil {
		panic("mpi: rendezvous data arrived before match")
	}
	rp.place(payload)
	rp.req.done.Complete(t)
}

// matchKey reports whether a posted receive accepts (src, tag).
func matches(rp *recvPost, src, tag int) bool {
	return rp.src == src && (rp.tag == AnyTag || rp.tag == tag)
}

// Isend posts a nonblocking send of bytes to dst with the given tag. fetch
// must return the payload; it is invoked exactly once, when the protocol
// reads the buffer.
func (r *Rank) Isend(dst, tag int, bytes int64, fetch func() interface{}) *Request {
	if dst < 0 || dst >= r.np {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d", dst))
	}
	r.progress()
	prof := r.world.Cluster.Prof
	req := &Request{done: r.world.Cluster.Eng.NewCompletion(), bytes: bytes, kind: "send"}
	r.proc.Advance(prof.OSend)

	if bytes <= prof.EagerThreshold {
		req.eager = true
		// Eager: host packs now; the send buffer is immediately reusable.
		r.proc.Advance(r.world.Cluster.CopyCost(bytes))
		payload := fetch()
		now := r.proc.Now()
		req.done.Complete(now)
		w := r.world
		src := r.me
		w.Cluster.Transfer(src, dst, bytes, now, func(t netsim.Time) {
			w.arriveEager(dst, src, tag, bytes, payload, t)
		})
		return req
	}

	// Rendezvous: an RTS travels to the receiver; data moves on CTS —
	// autonomously with offload, at the next host MPI call without.
	tx := &pendingTx{src: r.me, dst: dst, tag: tag, bytes: bytes, fetch: fetch, sendReq: req}
	w := r.world
	now := r.proc.Now()
	w.Cluster.Ctrl(r.me, dst, now, func(t netsim.Time) {
		w.arriveRTS(tx, t)
	})
	return req
}

// arriveEager handles an eager payload reaching dst.
func (w *World) arriveEager(dst, src, tag int, bytes int64, payload interface{}, t netsim.Time) {
	ep := w.eps[dst]
	for i, rp := range ep.posted {
		if matches(rp, src, tag) {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			rp.place(payload)
			at := t
			if rp.postedAt > at {
				at = rp.postedAt
			}
			rp.req.done.Complete(at)
			return
		}
	}
	ep.unexp = append(ep.unexp, &inbound{src: src, tag: tag, bytes: bytes, arrivedAt: t, payload: payload})
}

// arriveRTS handles a rendezvous request-to-send reaching the receiver.
func (w *World) arriveRTS(tx *pendingTx, t netsim.Time) {
	ep := w.eps[tx.dst]
	for i, rp := range ep.posted {
		if matches(rp, tx.src, tx.tag) {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			tx.recvReq = rp
			w.sendCTS(tx, t)
			return
		}
	}
	ep.unexp = append(ep.unexp, &inbound{src: tx.src, tag: tx.tag, bytes: tx.bytes, arrivedAt: t, rdv: tx})
}

// sendCTS sends clear-to-send back to the sender; on arrival the data
// transfer starts (offload) or is queued for host progress (non-offload).
func (w *World) sendCTS(tx *pendingTx, t netsim.Time) {
	if tx.ctsSent {
		return
	}
	tx.ctsSent = true
	w.Cluster.Ctrl(tx.dst, tx.src, t, func(at netsim.Time) {
		sep := w.eps[tx.src]
		if w.Cluster.Prof.Offload {
			// The NIC reads the buffer and moves the data by itself.
			payload := tx.fetch()
			tx.sendReq.done.Complete(at)
			w.Cluster.Transfer(tx.src, tx.dst, tx.bytes, at, func(t2 netsim.Time) {
				w.deliverData(tx, payload, t2)
			})
			return
		}
		if sep.inWait {
			// The host is polling inside a blocking MPI call: kick now.
			sep.owner.kickTx(tx, true)
			return
		}
		sep.ready = append(sep.ready, tx)
	})
}

// Irecv posts a nonblocking receive from src (no wildcard sources) with the
// given tag; place is invoked with the payload when the data arrives.
func (r *Rank) Irecv(src, tag int, bytes int64, place func(interface{})) *Request {
	if src < 0 || src >= r.np {
		panic(fmt.Sprintf("mpi: Irecv from invalid rank %d", src))
	}
	r.progress()
	prof := r.world.Cluster.Prof
	r.proc.Advance(prof.ORecv)
	req := &Request{done: r.world.Cluster.Eng.NewCompletion(), recv: true, bytes: bytes, kind: "recv"}
	rp := &recvPost{src: src, tag: tag, bytes: bytes, place: place, postedAt: r.proc.Now(), req: req}
	req.eager = bytes <= prof.EagerThreshold
	w := r.world
	me := r.me
	// Matching is engine-side state: mutate it in an event at post time.
	w.Cluster.Eng.At(r.proc.Now(), func(t netsim.Time) {
		ep := w.eps[me]
		for i, in := range ep.unexp {
			if in.src == src && (tag == AnyTag || in.tag == tag) {
				ep.unexp = append(ep.unexp[:i], ep.unexp[i+1:]...)
				if in.rdv != nil {
					in.rdv.recvReq = rp
					w.sendCTS(in.rdv, t)
				} else {
					rp.place(in.payload)
					at := in.arrivedAt
					if rp.postedAt > at {
						at = rp.postedAt
					}
					req.done.Complete(at)
				}
				return
			}
		}
		ep.posted = append(ep.posted, rp)
	})
	return req
}

// Wait blocks until the request completes, charging the host costs that
// accrue at completion time (eager unpack, TCP receive copies). The
// per-message overhead o was already charged at post time.
func (r *Rank) Wait(req *Request) {
	r.progress()
	r.ep.inWait = true
	r.proc.Wait(req.done, req.kind)
	r.ep.inWait = false
	prof := r.world.Cluster.Prof
	if req.recv {
		if req.eager || !prof.Offload {
			r.proc.Advance(r.world.Cluster.CopyCost(req.bytes))
		}
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

// Test reports whether the request has completed, without blocking. Like
// MPI_Test it enters the progress engine: the scheduler gets a chance to
// process any event up to this rank's current time (otherwise a Test
// polling loop would spin without the network ever advancing).
func (r *Rank) Test(req *Request) bool {
	r.progress()
	r.proc.Yield()
	return req.done.Done() && req.done.When() <= r.proc.Now()
}

// Send is the blocking send wrapper.
func (r *Rank) Send(dst, tag int, bytes int64, fetch func() interface{}) {
	req := r.Isend(dst, tag, bytes, fetch)
	r.Wait(req)
}

// Recv is the blocking receive wrapper.
func (r *Rank) Recv(src, tag int, bytes int64, place func(interface{})) {
	req := r.Irecv(src, tag, bytes, place)
	r.Wait(req)
}
