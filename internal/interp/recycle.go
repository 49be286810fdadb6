package interp

// Recycler lends array storage to a sequence of executions — the
// measurements of one search — so that measuring many variants of one
// program does not allocate every array afresh for each: the Recycler
// belongs to whoever runs them in sequence, and what it holds goes with it.
// Message payloads are not its: every run's come from mpi's run arena.
//
// It serves one execution at a time, whose ranks and engine events take
// turns on it (netsim runs one at a time). Storage goes back only at Reclaim,
// which the caller makes once mpi.Run has returned — until then a transfer
// the program never waited on may still land in it — and after it has
// digested what it keeps of the final arrays. It is never handed back at a
// subroutine's return. Reused storage is cleared, and carries no watch: the
// recording that watched it dropped the watch when it ended (watch.go). A
// nil *Recycler lends nothing: every array is fresh.
type Recycler struct {
	free map[storageKey][]*storage
	lent []*storage // since the last Reclaim
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
