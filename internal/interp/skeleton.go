package interp

import (
	"fmt"
	"math"
	"sync"

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
// the operations through the unchanged mpi/netsim code with empty payloads:
// makespan, traffic and every rank's finish, compute and blocked time come
// out exactly as an execution's under that machine.
//
// Both engines record, into one RankTrace per rank: the MPI binding both
// share (mpibind.go) records the operations, and the engine its charges —
// the bytecode VM one merged charge vector at a time, the walker
// (Program.Record) one charge at a time. A run that records nothing pays a
// nil check per charge. The recording folds the operations as they come
// into strided runs of a repeated pattern (rankSkel), so a skeleton grows
// with a program's distinct events, not with its trip counts, and Replay
// expands the runs as it goes.
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

// maxSkelEntries caps what a skeleton stores (all ranks), bounding what a
// resident server keeps per compiled variant: it counts stored entries, so a
// run of any length folds under it (see rankSkel).
const maxSkelEntries = 1 << 20

// skelEntry is one MPI operation and the charges since the previous one.
// Alltoall and Barrier are single entries: their internals depend on the
// profile and are recomputed by the replay. opNone closes a rank.
type skelEntry struct {
	bytes, tag int64
	peer       int32
	slot       int32 // opWait: the request handle (1-based, in posting order); stored, posted − handle
	counts     int32 // index into the rank's table of distinct charge counts
	op         mpiOp
}

// opRun heads a run among a rank's stored entries (rankSkel).
const opRun mpiOp = 255

// maxPeriod is the longest pattern a run folds.
const maxPeriod = 256

// rankSkel is one rank's skeleton, stored as strided runs of its operations
// (the regular section descriptors of ScalaTrace, Noeth et al., JPDC 2009). A
// run is a pattern of p ≤ maxPeriod operations repeated reps times, each field
// of each pattern entry — tag, peer, bytes and wait slot — advancing by its
// own stride per iteration, with op and charges fixed: the header {op: opRun,
// peer: p, bytes: reps}, then p pairs of (first iteration's entry, stride).
// Any other stored entry stands for itself. A wait's slot is stored relative
// to the requests posted before it, so a tile that waits on what it posted
// repeats one slot. The K tiles of a transformed exchange are one run, so
// what a rank stores grows with its distinct events, not with K. entries
// index a table of the distinct charge counts.
type rankSkel struct {
	entries []skelEntry
	counts  []ChargeCounts
}

// advanced is pattern entry e at iteration i of a run whose strides are d.
func (e skelEntry) advanced(d *skelEntry, i int64) skelEntry {
	e.bytes += i * d.bytes
	e.tag += i * d.tag
	e.peer += int32(i) * d.peer
	e.slot += int32(i) * d.slot
	return e
}

// stride is what e's fields advanced by since o.
func (e *skelEntry) stride(o *skelEntry) skelEntry {
	return skelEntry{bytes: e.bytes - o.bytes, tag: e.tag - o.tag, peer: e.peer - o.peer, slot: e.slot - o.slot}
}

// logical is how many operations the rank's stored entries stand for.
func (rk *rankSkel) logical() int64 {
	var n int64
	for k := 0; k < len(rk.entries); k++ {
		e := &rk.entries[k]
		if e.op != opRun {
			n++
			continue
		}
		n += int64(e.peer) * e.bytes
		k += 2 * int(e.peer)
	}
	return n
}

// skelCursor expands a rank's stored entries into its operations, in order.
type skelCursor struct {
	es     []skelEntry
	k      int   // the stored entry: a single, or a run's header
	j      int   // the pattern entry within the run
	i      int64 // the run's iteration
	posted int32 // requests expanded so far
}

// next returns the next operation, a wait's slot its request handle, and
// false past the last.
func (c *skelCursor) next() (skelEntry, bool) {
	if c.k >= len(c.es) {
		return skelEntry{}, false
	}
	e := c.es[c.k]
	if hdr := e; hdr.op == opRun {
		at := c.k + 1 + 2*c.j
		e = c.es[at].advanced(&c.es[at+1], c.i)
		if c.j++; c.j == int(hdr.peer) {
			c.j = 0
			if c.i++; c.i == hdr.bytes {
				c.i, c.k = 0, c.k+1+2*int(hdr.peer)
			}
		}
	} else {
		c.k++
	}
	switch e.op {
	case opIsend, opIrecv:
		c.posted++
	case opWait:
		e.slot = c.posted - e.slot
	}
	return e, true
}

// RankTrace records one rank's skeleton during a full execution. The engine
// reports charges, the MPI binding operations.
type RankTrace struct {
	rankSkel
	pend    ChargeCounts
	index   map[ChargeCounts]int32 // into counts
	last    int32                  // the index the previous entry took (counts is non-empty)
	limit   int
	open    int // nonblocking requests posted and not yet waited on
	posted  int32
	spoiled bool
	run     int // the open run's header in entries, -1 when none
	cands   [3]cand
	// hazard is the rank's first access to an in-flight buffer, watched the
	// storage its requests marked (watch.go).
	hazard  string
	watched []*storage
	*scratch
}

// Folding. entries hold the final stored form; the singles after it wait in
// scan. While a run is open (run ≥ 0), scan holds the first entries of its
// next iteration, matched so far. Otherwise scan is searched for periods: the
// search follows three candidate periods (cand) at once, so that loops nested
// three deep are each seen at their period. keys holds, by (charges, op), the
// last single with them in scan, plus one: a candidate slot left empty takes
// the distance back to the new single's last like it (a stale key only
// proposes; strided decides).
//
// A run is not stored as soon as it is found: the tiles of a transformed
// exchange loop over the peers inside, so an inner run closes before the
// tiles' own period shows. Closed runs wait in closed while their singles
// stay in scan; a run closing over them replaces them when it saves more
// entries. A run is stored once its singles reach foldWindow, which keeps it
// open, or once the search has moved foldWindow past it (commit). Each entry
// costs O(1) amortized: it is compared a few times, and moved at most twice.

// cand is a candidate period p and a, how many singles in a row equal the one
// p back advanced by the stride from the one 2p back: at a ≥ p, the last
// a + 2p singles are a run of three iterations or more.
type cand struct{ p, a int }

// span is a run in scan: n ≥ 3 iterations of p singles from start.
type span struct{ start, p, n int }

// foldWindow is how far back of the search a single can still become part
// of a run: a candidate's three periods.
const foldWindow = 3 * maxPeriod

// scratch is a recording's working memory, which it gives back once its
// skeleton is assembled (scratches): the search's singles, closed runs and
// keys, the in-flight marks of its open requests, and the words its
// watches' bitmaps are carved from (watch.go).
type scratch struct {
	scan   []skelEntry
	closed []span
	keys   []int32
	marks  openTable
	words  []uint64
}

// scratches lends the scratch of finished recordings to new ones: a
// transformed exchange holds every request open at once, and a search holds
// up to 2·foldWindow singles, so both would otherwise grow afresh with every
// recording.
var scratches = sync.Pool{New: func() interface{} { return new(scratch) }}

// release clears sc and gives it back to scratches.
func (sc *scratch) release() {
	clear(sc.keys)
	clear(sc.marks.vals[:cap(sc.marks.vals)])
	clear(sc.words)
	sc.scan, sc.closed, sc.marks.vals, sc.marks.base = sc.scan[:0], sc.closed[:0], sc.marks.vals[:0], 0
	sc.words = sc.words[:0]
	scratches.Put(sc)
}

// release ends the recording: its storages drop their watches before the
// words of their bitmaps go back with its scratch, so an array that outlives
// the recording never reads bits a later recording owns.
func (t *RankTrace) release() {
	for _, st := range t.watched {
		st.watch = nil
	}
	t.watched = nil
	t.scratch.release()
}

// NewRankTrace starts the recording of one rank of an np-rank run.
func NewRankTrace(np int) *RankTrace {
	return &RankTrace{index: map[ChargeCounts]int32{}, limit: maxSkelEntries / np, run: -1,
		scratch: scratches.Get().(*scratch)}
}

// Charge counts n repetitions of the charge vector v.
func (t *RankTrace) Charge(v *ChargeCounts, n int64) {
	for i, c := range v {
		t.pend[i] += c * n
	}
}

// record appends operation e, closing the pending charges, and folds it.
func (t *RankTrace) record(e skelEntry) {
	anyTag := (e.op == opIrecv || e.op == opRecv) && e.tag == mpi.AnyTag
	if t.spoiled = t.spoiled || anyTag || len(t.entries)+len(t.scan) >= t.limit; t.spoiled {
		return
	}
	switch e.op {
	case opIsend, opIrecv:
		t.open++
		t.posted++
	case opWait:
		t.open--
		e.slot = t.posted - e.slot
	}
	// A message loop repeats its charges: the previous entry's are the
	// likeliest.
	ci := t.last
	if len(t.counts) == 0 || t.counts[ci] != t.pend {
		var ok bool
		if ci, ok = t.index[t.pend]; !ok {
			ci = int32(len(t.counts))
			t.index[t.pend] = ci
			t.counts = append(t.counts, t.pend)
		}
		t.last = ci
	}
	e.counts, t.pend = ci, ChargeCounts{}
	if t.run >= 0 && t.extend(e) {
		return
	}
	m := len(t.scan)
	t.scan = append(t.scan, e)
	k := e.key()
	if k >= len(t.keys) {
		t.keys = append(t.keys, make([]int32, k+1-len(t.keys))...)
	}
	for i := range t.cands {
		if c := &t.cands[i]; t.strided(m, c.p) {
			c.a++
		} else {
			t.closeRun(c, m)
		}
	}
	if j := int(t.keys[k]) - 1; j >= 0 && j < m && m-j <= maxPeriod {
		t.propose(m, m-j)
	}
	t.keys[k] = int32(m + 1)
	for i := range t.cands {
		c := &t.cands[i]
		if c.a < c.p || c.a+2*c.p < foldWindow {
			continue
		}
		if _, _, ok := t.beats(span{start: m + 1 - c.a - 2*c.p, p: c.p, n: (c.a + 2*c.p) / c.p}); !ok {
			*c = cand{}
			continue
		}
		t.commit(m + 1 - c.a - 2*c.p)
		t.store(*c)
		return
	}
	if m+1 >= 2*foldWindow {
		t.commit(m + 1 - foldWindow)
	}
}

// propose gives period q, ending at single m, to an empty candidate slot
// unless a candidate follows it already.
func (t *RankTrace) propose(m, q int) {
	var free *cand
	for i := range t.cands {
		switch c := &t.cands[i]; {
		case c.p == q:
			return
		case c.p == 0 && free == nil:
			free = c
		}
	}
	if free != nil {
		if free.p = q; t.strided(m, q) {
			free.a = 1
		}
	}
}

// key is e's index into keys: its charges, then its op (< 16).
func (e *skelEntry) key() int { return int(e.counts)<<4 | int(e.op) }

// strided reports whether single m, the one p back and the one 2p back
// advance by one stride.
func (t *RankTrace) strided(m, p int) bool {
	if p == 0 || m < 2*p {
		return false
	}
	x, y, z := &t.scan[m], &t.scan[m-p], &t.scan[m-2*p]
	return x.op == y.op && y.op == z.op && x.counts == y.counts && y.counts == z.counts &&
		x.stride(y) == y.stride(z)
}

// closeRun ends candidate c before single m. Its run, if it found one and
// it beats the closed runs it overlaps, replaces them in closed; otherwise
// its singles stay as they are.
func (t *RankTrace) closeRun(c *cand, m int) {
	p, a := c.p, c.a
	*c = cand{}
	if p == 0 || a < p {
		return
	}
	sp := span{start: m - a - 2*p, p: p, n: (a + 2*p) / p}
	if i, cut, ok := t.beats(sp); ok {
		t.closed = t.closed[:i]
		if cut.n >= 3 {
			t.closed = append(t.closed, cut)
		}
		t.closed = append(t.closed, sp)
	}
}

// beats reports whether run sp saves more entries than the closed runs it
// overlaps, closed[i:], the first of them cut back to sp as cut.
func (t *RankTrace) beats(sp span) (i int, cut span, ok bool) {
	i = len(t.closed)
	for i > 0 && t.closed[i-1].start+t.closed[i-1].n*t.closed[i-1].p > sp.start {
		i--
	}
	old := 0
	for _, c := range t.closed[i:] {
		old += c.saves()
	}
	if i < len(t.closed) {
		cut = t.closed[i]
		cut.n = max(sp.start-cut.start, 0) / cut.p
	}
	return i, cut, sp.saves()+cut.saves() > old
}

// saves is how many fewer entries run sp stores than its singles, 0 for
// fewer than three iterations.
func (sp span) saves() int {
	if sp.n < 3 {
		return 0
	}
	return sp.n*sp.p - 2*sp.p - 1
}

// commit makes the singles before c final: it stores them, and the closed
// runs among them (one reaching past c only up to c, when three iterations
// remain), and moves the rest of scan down.
func (t *RankTrace) commit(c int) {
	r, keep := 0, 0
	for _, sp := range t.closed {
		if sp.start >= c {
			sp.start -= c
			t.closed[keep] = sp
			keep++
			continue
		}
		if sp.n = min(sp.n, (c-sp.start)/sp.p); sp.n >= 3 {
			t.entries = append(t.entries, t.scan[r:sp.start]...)
			t.storeRun(sp)
			r = sp.start + sp.n*sp.p
		}
	}
	t.entries = append(t.entries, t.scan[r:c]...)
	t.scan = t.scan[:copy(t.scan, t.scan[c:])]
	t.closed = t.closed[:keep]
	for i, j := range t.keys {
		if t.keys[i] = 0; int(j) > c {
			t.keys[i] = j - int32(c)
		}
	}
}

// storeRun appends run sp of scan to entries: its header, then each pattern
// entry and its stride.
func (t *RankTrace) storeRun(sp span) {
	t.entries = append(t.entries, skelEntry{op: opRun, peer: int32(sp.p), bytes: int64(sp.n)})
	for j := sp.start; j < sp.start+sp.p; j++ {
		t.entries = append(t.entries, t.scan[j], t.scan[j+sp.p].stride(&t.scan[j]))
	}
}

// store stores candidate c's run, which starts scan, and keeps it open: what
// its singles hold of a further iteration stays in scan, matched.
func (t *RankTrace) store(c cand) {
	sp := span{p: c.p, n: (c.a + 2*c.p) / c.p}
	t.run = len(t.entries)
	t.storeRun(sp)
	t.scan = t.scan[:copy(t.scan, t.scan[sp.n*sp.p:])]
	t.cands, t.closed = [3]cand{}, t.closed[:0]
	clear(t.keys)
}

// extend takes e into the open run when it is the run's next entry, and
// reports whether it did; otherwise the run closes, and what matched of its
// next iteration stays in scan as singles.
func (t *RankTrace) extend(e skelEntry) bool {
	hdr := &t.entries[t.run]
	at := t.run + 1 + 2*len(t.scan)
	if t.entries[at].advanced(&t.entries[at+1], hdr.bytes) == e {
		if len(t.scan)+1 == int(hdr.peer) {
			hdr.bytes++
			t.scan = t.scan[:0]
		} else {
			t.scan = append(t.scan, e)
		}
		return true
	}
	for i := range t.scan {
		t.keys[t.scan[i].key()] = int32(i + 1) // recorded before, so keys holds it
	}
	t.run = -1
	return false
}

// finish makes what scan holds final once the rank's last entry is in.
func (t *RankTrace) finish() {
	if t.run < 0 {
		for i := range t.cands {
			t.closeRun(&t.cands[i], len(t.scan))
		}
	}
	t.commit(len(t.scan))
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

// Digested replaces every final array of res by its ArrayDigest, in place —
// by skel's, when skel certifies, since it digested the same arrays — so that
// res holds no storage: the answer of a measurement. A nil res stays nil.
func Digested(res *Result, skel *Skeleton) *Result {
	switch {
	case res == nil:
	case skel.Certifies():
		res.Arrays = skel.arrays
	default:
		for _, arrs := range res.Arrays {
			for name, data := range arrs {
				arrs[name] = Digest(data)
			}
		}
	}
	return res
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
	defer func() {
		for _, t := range traces {
			if t != nil {
				t.release()
			}
		}
	}()
	if err != nil {
		return nil
	}
	s := &Skeleton{output: res.Output}
	for r, t := range traces {
		t.record(skelEntry{op: opNone})
		t.finish()
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

// Disagree says where two recordings of one program at one rank count part,
// "" when they agree: both fenced, both refused, or both certifying with the
// same operations — op, bytes, peer, tag and request slot — and the same
// charge counts before each, rank by rank and entry by entry. Output and
// arrays are not compared: a slice's recording holds neither.
func Disagree(a, b *Skeleton) string {
	switch {
	case (a == nil) != (b == nil):
		return fmt.Sprintf("fenced %v vs %v", a == nil, b == nil)
	case a == nil:
		return ""
	case a.Certifies() != b.Certifies():
		return fmt.Sprintf("certifies %v (%v) vs %v (%v)", a.Certifies(), a.inFlight, b.Certifies(), b.inFlight)
	case !a.Certifies():
		return ""
	case len(a.ranks) != len(b.ranks):
		return fmt.Sprintf("%d vs %d ranks", len(a.ranks), len(b.ranks))
	}
	for r := range a.ranks {
		ra, rb := &a.ranks[r], &b.ranks[r]
		if na, nb := ra.logical(), rb.logical(); na != nb {
			return fmt.Sprintf("rank %d: %d vs %d entries", r, na, nb)
		}
		xa, xb := skelCursor{es: ra.entries}, skelCursor{es: rb.entries}
		for i := 0; ; i++ {
			ea, ok := xa.next()
			eb, _ := xb.next()
			if !ok {
				break
			}
			ca, cb := ra.counts[ea.counts], rb.counts[eb.counts]
			ea.counts, eb.counts = 0, 0
			if ea != eb || ca != cb {
				return fmt.Sprintf("rank %d entry %d: %+v after %v vs %+v after %v", r, i, ea, ca, eb, cb)
			}
		}
	}
	return ""
}

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
	np := len(s.ranks)
	stats, err := mpi.Run(np, prof, func(r *mpi.Rank) {
		rk := &s.ranks[r.Me()]
		prices := make([]netsim.Time, len(rk.counts))
		for i := range prices {
			prices[i] = costs.Price(&rk.counts[i])
		}
		x := skelCursor{es: rk.entries}
		for e, ok := x.next(); ok; e, ok = x.next() {
			r.Compute(prices[e.counts])
			peer, tag := int(e.peer), int(e.tag)
			switch e.op {
			case opBarrier:
				r.Barrier()
			case opIsend:
				r.Hold(r.IsendPayload(peer, tag, e.bytes, mpi.Payload{}))
			case opIrecv:
				r.Hold(r.IrecvPayload(peer, tag, e.bytes, mpi.Payload{}))
			case opSend:
				r.Send(peer, tag, e.bytes, mpi.Payload{})
			case opRecv:
				r.Recv(peer, tag, e.bytes, mpi.Payload{})
			case opWait:
				req, _ := r.Take(int64(e.slot))
				r.Wait(req)
			case opAlltoall:
				r.AlltoallPayload(e.bytes, mpi.Payload{}, mpi.Payload{})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return &Result{Stats: stats, Output: s.output, Arrays: s.arrays, Errors: make([]error, np)}, nil
}

// openTable holds the mark of each nonblocking request of a rank, from its
// oldest request still open on: handle base+i+1's is vals[i]. Handles stay
// those the program sees; what the table keeps grows with the requests open
// at once, not with all the rank posts.
type openTable struct {
	vals []reqMark
	base int32
}

// push adds the next handle's mark. Before the table grows, it drops the
// prefix of waited requests when that is half of it, so each mark is moved
// at most once on average.
func (o *openTable) push(v reqMark) {
	if len(o.vals) == cap(o.vals) {
		n := 0
		for n < len(o.vals) && o.vals[n].waited {
			n++
		}
		if 2*n >= len(o.vals) {
			o.base += int32(n)
			o.vals = o.vals[:copy(o.vals, o.vals[n:])]
		}
	}
	o.vals = append(o.vals, v)
}

// at is handle h's value; h is open, so the table holds it.
func (o *openTable) at(h int32) *reqMark { return &o.vals[h-o.base-1] }
