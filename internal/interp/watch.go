package interp

import (
	"fmt"

	"repro/internal/ftn"
)

// In-flight buffers. A nonblocking request's payload is read (isend) or
// written (irecv) at a time the machine decides — at the post when eager, when
// a rendezvous starts, when the message lands — but always while the owning
// rank is inside, or parked in, an MPI call or a compute charge between its
// post and its wait. A program that touches no open request's buffer in that
// window computes the same data whatever the time, so under every machine; a
// program that does is an erroneous MPI program whose data the protocol
// decides. A recording run tells the two apart. Each open request marks its
// elements on the array's storage — so every dummy-argument view of it sees
// the marks — one bit per element and direction, allocated on the first
// request posted over that storage. Posting and waiting cost O(region/64);
// every element access checks its bit. The first access that crosses a mark
// is the rank's hazard: marking stops for that rank, and the skeleton does not
// certify (skeleton.go). Storage no recording run posted over carries no
// watch, so a run that does not record pays one nil test per access.
//
// The hazards: a store to an isend buffer; a load or store of an irecv buffer;
// a blocking send, receive or alltoall whose buffer an open request would
// read (receives) or write; an isend over an open irecv buffer and an irecv
// over any open buffer. Two isends may share elements (both only read them):
// then the storage is stacked, and an isend's wait re-marks the open ones
// after clearing its own, so an element stays marked exactly while some open
// isend reads it.

// watch is one storage's marks.
type watch struct {
	t          *RankTrace // the recording rank, which takes the first hazard
	send, recv []uint64   // bit i: an open isend reads / irecv writes element i
	sends      []int32    // the open isends over the storage, by request handle
	stacked    bool       // open isends have shared an element (see above)
}

// newWatch watches st, carving its two bitmaps from the recording's words.
// When the words run out, the watches carved so far keep the array they
// point into, and the words go on at the same offset in one at least twice
// the size: the array the scratch goes back with holds every word of the
// recording, so a recording of the same shape carves all of its bitmaps
// from it.
func (t *RankTrace) newWatch(st *storage) *watch {
	n := int(st.len()+63) / 64
	at := len(t.words)
	if at+2*n > cap(t.words) {
		t.words = make([]uint64, at, max(2*cap(t.words), at+2*n))
	}
	t.words = t.words[:at+2*n]
	w := &watch{t: t, send: t.words[at : at+n : at+n], recv: t.words[at+n : at+2*n : at+2*n]}
	st.watch = w
	t.watched = append(t.watched, st)
	return w
}

// reqMark is what one nonblocking request marked, for its wait to clear; st
// is nil when it marked nothing.
type reqMark struct {
	st     *storage
	lo, n  int64
	at     int32 // an isend's index in its watch's sends
	recv   bool
	waited bool
}

// words calls f with the index and element mask of every bitmap word the
// elements [lo, lo+n) touch, stopping when f returns true.
func words(lo, n int64, f func(i int64, mask uint64) bool) bool {
	if n <= 0 {
		return false
	}
	hi := lo + n - 1
	for i := lo >> 6; i <= hi>>6; i++ {
		mask := ^uint64(0)
		if i == lo>>6 {
			mask &= ^uint64(0) << (lo & 63)
		}
		if i == hi>>6 {
			mask &= ^uint64(0) >> (63 - hi&63)
		}
		if f(i, mask) {
			return true
		}
	}
	return false
}

func anyBit(bits []uint64, lo, n int64) bool {
	return words(lo, n, func(i int64, m uint64) bool { return bits[i]&m != 0 })
}

func setBits(bits []uint64, lo, n int64) {
	words(lo, n, func(i int64, m uint64) bool { bits[i] |= m; return false })
}

func clearBits(bits []uint64, lo, n int64) {
	words(lo, n, func(i int64, m uint64) bool { bits[i] &^= m; return false })
}

// load checks a load of storage element i.
func (w *watch) load(a *Array, i int64) {
	if w.recv[i>>6]>>(i&63)&1 != 0 {
		w.t.flag("load of %s element %d while an mpi_irecv still writes it", a.Name, i-a.Offset+1)
	}
}

// store checks a store to storage element i.
func (w *watch) store(a *Array, i int64) {
	if (w.send[i>>6]|w.recv[i>>6])>>(i&63)&1 != 0 {
		w.t.flag("store to %s element %d while a nonblocking request on it is in flight", a.Name, i-a.Offset+1)
	}
}

// flag records the rank's first hazard and stops its watch: every storage
// drops its marks, so the rest of the run pays the nil test only.
func (t *RankTrace) flag(format string, args ...interface{}) {
	if t.hazard != "" {
		return
	}
	t.hazard = fmt.Sprintf(format, args...)
	for _, st := range t.watched {
		st.watch = nil
	}
	t.watched = nil
}

// mark marks the buffer of the nonblocking request call s posts (count
// elements at arr+off, an already checked window), first checking it against
// the open ones, and keeps in marks what the request's wait clears.
func (t *RankTrace) mark(s *ftn.CallStmt, arr *Array, off, count int64, recv bool) {
	t.marks.push(t.newMark(s, arr, off, count, recv))
}

// newMark is mark's reqMark, for the request's handle: the next one.
func (t *RankTrace) newMark(s *ftn.CallStmt, arr *Array, off, count int64, recv bool) reqMark {
	if t.hazard != "" || count <= 0 {
		return reqMark{}
	}
	st, lo := arr.Store, arr.Offset+off
	w := st.watch
	if w == nil {
		w = t.newWatch(st)
	}
	m := reqMark{st: st, lo: lo, n: count, recv: recv}
	switch {
	case recv && (anyBit(w.send, lo, count) || anyBit(w.recv, lo, count)):
		t.flag("%s: %s's buffer %s overlaps a request still in flight", s.Pos(), s.Name, arr.Name)
		return reqMark{}
	case recv:
		setBits(w.recv, lo, count)
	case anyBit(w.recv, lo, count):
		t.flag("%s: %s reads %s while an mpi_irecv still writes it", s.Pos(), s.Name, arr.Name)
		return reqMark{}
	default:
		w.stacked = w.stacked || anyBit(w.send, lo, count)
		setBits(w.send, lo, count)
		m.at = int32(len(w.sends))
		w.sends = append(w.sends, t.marks.base+int32(len(t.marks.vals))+1)
	}
	return m
}

// unmark clears what request h marked, at its wait.
func (t *RankTrace) unmark(h int32) {
	m := t.marks.at(h)
	m.waited = true
	if m.st == nil || m.st.watch == nil {
		return
	}
	w := m.st.watch
	if m.recv {
		clearBits(w.recv, m.lo, m.n)
		return
	}
	last := w.sends[len(w.sends)-1]
	w.sends[m.at], t.marks.at(last).at = last, m.at
	w.sends = w.sends[:len(w.sends)-1]
	clearBits(w.send, m.lo, m.n)
	if w.stacked {
		for _, o := range w.sends {
			o := t.marks.at(o)
			setBits(w.send, o.lo, o.n)
		}
		w.stacked = len(w.sends) > 0
	}
}

// blocking checks the buffer of a blocking transfer in call s — count
// elements at arr+off, clipped to the storage — against the open requests: a
// send reads it, a receive writes it.
func (t *RankTrace) blocking(s *ftn.CallStmt, arr *Array, off, count int64, write bool) {
	w := arr.Store.watch
	if w == nil {
		return
	}
	lo := max(arr.Offset+off, 0)
	n := min(arr.Offset+off+count, arr.Store.len()) - lo
	if anyBit(w.recv, lo, n) || write && anyBit(w.send, lo, n) {
		t.flag("%s: %s over %s while a nonblocking request on it is in flight", s.Pos(), s.Name, arr.Name)
	}
}

// NoteLoad checks a load of the element at linear offset off within the view
// against the buffers a recording run watches: one nil test when none is
// watched. The bytecode engine calls it on every element it loads one at a
// time; Get and RawGet call it for the walker.
func (a *Array) NoteLoad(off int64) {
	if w := a.Store.watch; w != nil {
		w.load(a, a.Offset+off)
	}
}

// NoteStore checks a store to the element at linear offset off (see
// NoteLoad).
func (a *Array) NoteStore(off int64) {
	if w := a.Store.watch; w != nil {
		w.store(a, a.Offset+off)
	}
}

// Probe is an access of the element at linear offset off within the view
// that moves no data — a load, or with store a store: the in-flight check
// NoteLoad or NoteStore makes, and the storage bound the element access
// would fault on. It is what a slice keeps of an access whose element it does
// not compute.
func (a *Array) Probe(off int64, store bool) error {
	if i := a.Offset + off; i < 0 || i >= a.Store.len() {
		return fmt.Errorf("array %s: element %d outside its storage of %d", a.Name, i, a.Store.len())
	}
	if store {
		a.NoteStore(off)
	} else {
		a.NoteLoad(off)
	}
	return nil
}

// Marked reports whether a load (or with store, a store) of any element at
// linear offsets lo..hi of the view, which lie inside its storage, would
// cross a mark of an open request: a load crosses an irecv's, a store any
// request's. One nil test when nothing is watched.
func (a *Array) Marked(lo, hi int64, store bool) bool {
	w := a.Store.watch
	if w == nil {
		return false
	}
	lo, n := a.Offset+lo, hi-lo+1
	return anyBit(w.recv, lo, n) || store && anyBit(w.send, lo, n)
}

// NoteLoads checks the loads of a strip of elements at linear offsets offs
// within the view (see NoteLoad): one nil test per strip when none is
// watched. A watched strip is first tested as the range of elements its
// offsets span, a word of the bitmap at a time; only a range holding a mark
// is checked element by element, which finds the same first hazard.
func (a *Array) NoteLoads(offs []int64) {
	w := a.Store.watch
	if w == nil {
		return
	}
	if lo, n, ok := a.stripRange(offs); ok && !anyBit(w.recv, lo, n) {
		return
	}
	for _, off := range offs {
		if w.load(a, a.Offset+off); a.Store.watch == nil {
			return
		}
	}
}

// NoteStores checks a strip of stores (see NoteLoads).
func (a *Array) NoteStores(offs []int64) {
	w := a.Store.watch
	if w == nil {
		return
	}
	if lo, n, ok := a.stripRange(offs); ok && !anyBit(w.send, lo, n) && !anyBit(w.recv, lo, n) {
		return
	}
	for _, off := range offs {
		if w.store(a, a.Offset+off); a.Store.watch == nil {
			return
		}
	}
}

// stripRange returns the storage elements [lo, lo+n) a non-empty strip's
// offsets span, and false when they span more bitmap words than the strip
// has lanes: testing that range would cost more than testing each lane.
func (a *Array) stripRange(offs []int64) (lo, n int64, ok bool) {
	if len(offs) == 0 {
		return 0, 0, false
	}
	lo, hi := offs[0], offs[0]
	for _, off := range offs[1:] {
		lo, hi = min(lo, off), max(hi, off)
	}
	lo, hi = a.Offset+lo, a.Offset+hi
	if hi>>6-lo>>6 >= int64(len(offs)) {
		return 0, 0, false
	}
	return lo, hi - lo + 1, true
}
