package interp

import (
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
// The input fences what would break that: no skeleton is left by a run that
// posts an any-tag receive (matching would follow arrival order), ends with an
// unwaited request (its final arrays are a timing-dependent snapshot), fails,
// or outgrows maxSkelEntries, and none recorded of a program reading
// mpi_wtime. No fence sees a send buffer overwritten while a rendezvous still
// reads it — data that depends on the protocol — so callers rank by a replay
// (it carries the recording run's observables) and certify by an execution.

// ChargeCounts tallies cost-model charges by kind, in CostModel's field
// order: Op, Assign, Store, Load, LoopIter, CallOver.
type ChargeCounts [6]int64

// Price is the virtual time the counted charges cost under the model.
func (c CostModel) Price(n *ChargeCounts) netsim.Time {
	return c.Op*netsim.Time(n[0]) + c.Assign*netsim.Time(n[1]) + c.Store*netsim.Time(n[2]) +
		c.Load*netsim.Time(n[3]) + c.LoopIter*netsim.Time(n[4]) + c.CallOver*netsim.Time(n[5])
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
// compares against much later.
func Digest(data interface{}) ArrayDigest {
	const mul = 0x9E3779B97F4A7C15
	mix := func(h, w uint64) uint64 { h = (h ^ w) * mul; return h ^ h>>32 }
	var d ArrayDigest
	switch data := data.(type) {
	case ArrayDigest:
		return data
	case []int64:
		d.Len = len(data)
		for _, v := range data {
			d.Sum = mix(d.Sum, uint64(v))
		}
	case []float64:
		d.Real, d.Len = true, len(data)
		for _, v := range data {
			d.Sum = mix(d.Sum, math.Float64bits(v))
		}
	}
	return d
}

// Skeleton is the machine-independent record of one clean run.
type Skeleton struct {
	ranks  []rankSkel
	output [][]string
	arrays []map[string]interface{} // every final array's ArrayDigest
}

// NewSkeleton assembles the traces and the outcome RunRanks returned, or
// returns nil for a run no replay can stand for.
func NewSkeleton(traces []*RankTrace, res *Result, err error) *Skeleton {
	if err != nil {
		return nil
	}
	s := &Skeleton{output: res.Output}
	for _, t := range traces {
		t.record(skelEntry{op: opNone})
		if t.spoiled || t.open != 0 {
			return nil
		}
		s.ranks = append(s.ranks, t.rankSkel)
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

// Replay prices the skeleton under a machine and issues each rank's
// operations against a fresh simulated cluster. The Result carries its own
// Stats, the recording's Output, and the recorded digests for Arrays.
func (s *Skeleton) Replay(prof netsim.Profile, costs CostModel) (*Result, error) {
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
