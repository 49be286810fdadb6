package interp

// Recycler lends array storage and send payloads to a sequence of
// executions — the measurements of one search — so that measuring many
// variants of one program does not allocate every array and every message
// afresh for each. Within one execution nearly every payload is in flight at
// once, so reuse pays across executions: the Recycler belongs to whoever runs
// them in sequence, and what it holds goes with it.
//
// It serves one execution at a time, whose ranks and engine events take
// turns on it (netsim runs one at a time). Storage goes back only at Reclaim,
// which the caller makes once mpi.Run has returned — until then a transfer
// the program never waited on may still land in it — and after it has
// digested what it keeps of the final arrays. It is never handed back at a
// subroutine's return. Reused storage is cleared, and carries no watch: the
// recording that watched it dropped the watch when it ended (watch.go). A
// payload goes back as soon as its receive has copied it in. A nil *Recycler
// lends nothing: every array and payload is fresh.
type Recycler struct {
	free  map[storageKey][]*storage
	lent  []*storage // since the last Reclaim
	ints  map[int64][]*[]int64
	reals map[int64][]*[]float64
}

type storageKey struct {
	kind Kind
	n    int64
}

// storage lends cleared storage of n elements of kind.
func (rc *Recycler) storage(kind Kind, n int64) *storage {
	if rc == nil {
		return newStorage(kind, n)
	}
	k := storageKey{kind, n}
	var s *storage
	if free := rc.free[k]; len(free) > 0 {
		s = free[len(free)-1]
		rc.free[k] = free[:len(free)-1]
		clear(s.ints)
		clear(s.reals)
	} else {
		s = newStorage(kind, n)
	}
	rc.lent = append(rc.lent, s)
	return s
}

// Reclaim takes back every storage lent since the last Reclaim. The caller
// guarantees that the execution is over — mpi.Run has returned, and its
// recording, if any, has ended — and that nothing it keeps refers to the
// storage.
func (rc *Recycler) Reclaim() {
	if rc == nil {
		return
	}
	if rc.free == nil {
		rc.free = map[storageKey][]*storage{}
	}
	for _, s := range rc.lent {
		k := storageKey{s.kind, s.len()}
		rc.free[k] = append(rc.free[k], s)
	}
	clear(rc.lent)
	rc.lent = rc.lent[:0]
}

// intPayload and realPayload lend a payload of n elements, to be
// overwritten in full. A payload is a pointer, so passing it as an
// interface{} allocates nothing.
func (rc *Recycler) intPayload(n int64) *[]int64 {
	if rc != nil {
		if free := rc.ints[n]; len(free) > 0 {
			rc.ints[n] = free[:len(free)-1]
			return free[len(free)-1]
		}
	}
	p := make([]int64, n)
	return &p
}

func (rc *Recycler) realPayload(n int64) *[]float64 {
	if rc != nil {
		if free := rc.reals[n]; len(free) > 0 {
			rc.reals[n] = free[:len(free)-1]
			return free[len(free)-1]
		}
	}
	p := make([]float64, n)
	return &p
}

// put takes back a payload its receive has copied in.
func (rc *Recycler) put(payload interface{}) {
	if rc == nil {
		return
	}
	switch p := payload.(type) {
	case *[]int64:
		if rc.ints == nil {
			rc.ints = map[int64][]*[]int64{}
		}
		n := int64(len(*p))
		rc.ints[n] = append(rc.ints[n], p)
	case *[]float64:
		if rc.reals == nil {
			rc.reals = map[int64][]*[]float64{}
		}
		n := int64(len(*p))
		rc.reals[n] = append(rc.reals[n], p)
	}
}
