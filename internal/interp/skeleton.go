package interp

import (
	"fmt"
	"math"

	"repro/internal/mpi"
	"repro/internal/netsim"
)

// A run skeleton is what one full execution leaves behind that no machine
// model can change: per rank, the MPI operations it issued and, as integer
// charge counts by kind, the computation between them; plus the observables
// (output lines, a digest of every final array). Nothing a program computes
// depends on the machine — matching has no wildcard source, payloads never
// feed the network model, costs are six prices applied to counts — only when
// things happen does. Replay prices the counts with any CostModel and pushes
// the operations through the unchanged mpi/netsim code with nil payloads:
// makespan, traffic and every rank's finish, compute and blocked time come
// out exactly as an execution's under that machine.
//
// Both engines record, into one RankTrace per rank: the MPI binding both
// share (mpibind.go) records the operations, and the engine its charges —
// the bytecode VM one merged charge vector at a time, the walker
// (Program.Record) one charge at a time. A run that records nothing pays a
// nil check per charge.
//
// The input fences what would break that: no skeleton is left by a run that
// posts an any-tag receive (matching would follow arrival order), ends with an
// unwaited request (its final arrays are a timing-dependent snapshot), fails,
// outgrows maxSkelEntries, or reads mpi_wtime (the bytecode lowering refuses a
// program that can; the walker spoils its trace at the read). The last fence
// is the recording's watch on in-flight buffers (watch.go): a run that stores
// to a send buffer or touches a receive buffer between post and wait computes
// data the protocol and the timing decide, and its skeleton does not certify.
// A skeleton that certifies stands for an execution under any machine, data
// included: its replay is that execution's Stats, output and (digested)
// arrays. One that does not is kept only for its reason (InFlight); nothing
// replays it.

// ChargeCounts tallies cost-model charges by kind, in CostModel's field
// order: Op, Assign, Store, Load, LoopIter, CallOver.
type ChargeCounts [6]int64

// Charge kinds: the ChargeCounts indices.
const (
	chOp = iota
	chAssign
	chStore
	chLoad
	chLoopIter
	chCallOver
)

// Price is the virtual time the counted charges cost under the model.
func (c CostModel) Price(n *ChargeCounts) netsim.Time {
	p := c.prices()
	var t netsim.Time
	for k, cnt := range n {
		t += p[k] * netsim.Time(cnt)
	}
	return t
}

// prices lists the model's prices by charge kind.
func (c CostModel) prices() [6]netsim.Time {
	return [6]netsim.Time{c.Op, c.Assign, c.Store, c.Load, c.LoopIter, c.CallOver}
}

// maxSkelEntries caps a skeleton (all ranks), bounding what a resident
// server keeps per compiled variant.
const maxSkelEntries = 1 << 20

// skelEntry is one MPI operation and the charges since the previous one.
// Alltoall and Barrier are single entries: their internals depend on the
// profile and are recomputed by the replay. opNone closes a rank.
type skelEntry struct {
	bytes, tag int64
	peer       int32
	slot       int32 // opWait: the request handle (1-based, in posting order)
	counts     int32 // index into the rank's table of distinct charge counts
	op         mpiOp
}

// rankSkel is one rank's skeleton; entries index a table of the distinct
// charge counts (a message loop repeats a handful thousands of times).
type rankSkel struct {
	entries []skelEntry
	counts  []ChargeCounts
}

// RankTrace records one rank's skeleton during a full execution. The engine
// reports charges, the MPI binding operations.
type RankTrace struct {
	rankSkel
	pend    ChargeCounts
	index   map[ChargeCounts]int32 // into counts
	limit   int
	open    int // nonblocking requests posted and not yet waited on
	spoiled bool
	// hazard is the rank's first access to an in-flight buffer, watched the
	// storage its requests marked (watch.go).
	hazard  string
	watched []*storage
}

// NewRankTrace starts the recording of one rank of an np-rank run.
func NewRankTrace(np int) *RankTrace {
	return &RankTrace{index: map[ChargeCounts]int32{}, limit: maxSkelEntries / np}
}

// Charge counts n repetitions of the charge vector v.
func (t *RankTrace) Charge(v *ChargeCounts, n int64) {
	for i, c := range v {
		t.pend[i] += c * n
	}
}

// record appends operation e, closing the pending charges.
func (t *RankTrace) record(e skelEntry) {
	anyTag := (e.op == opIrecv || e.op == opRecv) && e.tag == mpi.AnyTag
	if t.spoiled = t.spoiled || anyTag || len(t.entries) >= t.limit; t.spoiled {
		return
	}
	switch e.op {
	case opIsend, opIrecv:
		t.open++
	case opWait:
		t.open--
	}
	ci, ok := t.index[t.pend]
	if !ok {
		ci = int32(len(t.counts))
		t.index[t.pend] = ci
		t.counts = append(t.counts, t.pend)
	}
	e.counts, t.pend = ci, ChargeCounts{}
	t.entries = append(t.entries, e)
}

// ArrayDigest stands in a replay's Result for a final array (a skeleton lives
// as long as its compiled variant, so it does not hold the data): kind,
// length and a 64-bit hash of the elements. SameOutput and SameObservable
// compare it with data or another digest; equal digests are not proof.
type ArrayDigest struct {
	Real bool
	Len  int
	Sum  uint64
}

// Digest digests final-array data (or passes a digest through): what a
// replay's Result holds for an array, and what a caller keeps of a run it
// compares against much later. The elements are mixed four at a time into
// four independent chains, not one serial chain; the last len mod 4 follow
// in the first chain, and the chains are folded in order, so moving an
// element to another chain still changes the sum.
func Digest(data interface{}) ArrayDigest {
	var l digestLanes
	switch data := data.(type) {
	case ArrayDigest:
		return data
	case []int64:
		i := 0
		for ; i+4 <= len(data); i += 4 {
			l = l.mix(uint64(data[i]), uint64(data[i+1]), uint64(data[i+2]), uint64(data[i+3]))
		}
		for _, v := range data[i:] {
			l.h0 = digestMix(l.h0, uint64(v))
		}
		return ArrayDigest{Len: len(data), Sum: l.sum()}
	case []float64:
		i := 0
		for ; i+4 <= len(data); i += 4 {
			l = l.mix(math.Float64bits(data[i]), math.Float64bits(data[i+1]),
				math.Float64bits(data[i+2]), math.Float64bits(data[i+3]))
		}
		for _, v := range data[i:] {
			l.h0 = digestMix(l.h0, math.Float64bits(v))
		}
		return ArrayDigest{Real: true, Len: len(data), Sum: l.sum()}
	}
	return ArrayDigest{}
}

// digestLanes is Digest's four chains.
type digestLanes struct{ h0, h1, h2, h3 uint64 }

func digestMix(h, w uint64) uint64 {
	h = (h ^ w) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

func (l digestLanes) mix(a, b, c, d uint64) digestLanes {
	return digestLanes{digestMix(l.h0, a), digestMix(l.h1, b), digestMix(l.h2, c), digestMix(l.h3, d)}
}

func (l digestLanes) sum() uint64 {
	return digestMix(digestMix(digestMix(digestMix(0, l.h0), l.h1), l.h2), l.h3)
}

// Skeleton is the machine-independent record of one clean run.
type Skeleton struct {
	ranks  []rankSkel
	output [][]string
	arrays []map[string]interface{} // every final array's ArrayDigest
	// inFlight, when set, is why the skeleton does not certify; it then
	// holds nothing else.
	inFlight error
}

// NewSkeleton assembles the traces and the outcome RunRanks returned, or
// returns nil for a fenced run. A run that touched an in-flight buffer leaves
// a skeleton that does not certify and says where.
func NewSkeleton(traces []*RankTrace, res *Result, err error) *Skeleton {
	if err != nil {
		return nil
	}
	s := &Skeleton{output: res.Output}
	for r, t := range traces {
		t.record(skelEntry{op: opNone})
		if t.spoiled || t.open != 0 {
			return nil
		}
		if t.hazard != "" && s.inFlight == nil {
			s.inFlight = fmt.Errorf("rank %d: %s", r, t.hazard)
		}
		s.ranks = append(s.ranks, t.rankSkel)
	}
	if s.inFlight != nil {
		return &Skeleton{inFlight: s.inFlight}
	}
	for _, arrs := range res.Arrays {
		digests := make(map[string]interface{}, len(arrs))
		for name, data := range arrs {
			digests[name] = Digest(data)
		}
		s.arrays = append(s.arrays, digests)
	}
	return s
}

// Certifies reports whether the skeleton stands for an execution under any
// machine: it exists, and no rank touched an in-flight buffer.
func (s *Skeleton) Certifies() bool { return s != nil && s.inFlight == nil }

// InFlight says where the recording touched an in-flight buffer: nil for a
// skeleton that certifies.
func (s *Skeleton) InFlight() error { return s.inFlight }

// Replay prices the skeleton under a machine and issues each rank's
// operations against a fresh simulated cluster. The Result carries its own
// Stats, the recording's Output, and the recorded digests for Arrays. A
// skeleton that does not certify replays to its InFlight error.
func (s *Skeleton) Replay(prof netsim.Profile, costs CostModel) (*Result, error) {
	if s.inFlight != nil {
		return nil, s.inFlight
	}
	none := func() interface{} { return nil }
	drop := func(interface{}) {}
	np := len(s.ranks)
	stats, err := mpi.Run(np, prof, func(r *mpi.Rank) {
		rk := &s.ranks[r.Me()]
		prices := make([]netsim.Time, len(rk.counts))
		for i := range prices {
			prices[i] = costs.Price(&rk.counts[i])
		}
		var reqs []*mpi.Request
		for i := range rk.entries {
			e := &rk.entries[i]
			r.Compute(prices[e.counts])
			peer, tag := int(e.peer), int(e.tag)
			switch e.op {
			case opBarrier:
				r.Barrier()
			case opIsend:
				reqs = append(reqs, r.Isend(peer, tag, e.bytes, none))
			case opIrecv:
				reqs = append(reqs, r.Irecv(peer, tag, e.bytes, drop))
			case opSend:
				r.Send(peer, tag, e.bytes, none)
			case opRecv:
				r.Recv(peer, tag, e.bytes, drop)
			case opWait:
				r.Wait(reqs[e.slot-1])
			case opAlltoall:
				r.Alltoall(e.bytes, func(int) interface{} { return nil }, func(int, interface{}) {})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return &Result{Stats: stats, Output: s.output, Arrays: s.arrays, Errors: make([]error, np)}, nil
}
