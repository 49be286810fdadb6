package analysis

import (
	"sync"

	"repro/internal/ftn"
)

// ProofMemo keeps, for one program, what has been proved about its sites.
//
// Locating a site — C, ℓ, the parent list, the unit's facts, the nest's
// references — yields pointers into the AST and is redone on every file
// FindOpportunities is handed: the transformer rewrites clones, and each
// clone has its own nodes. The proofs about what was located — the §3.3
// safe-reference set, the §3.5 interchange verdict, the §3.4 slab mapping,
// the tile-order independence of the staggered schedule — are pointer-free
// facts about the original ℓ and C, derived once and looked up afterwards.
//
// An entry is keyed by the proof's name, C's source position, ℓ as it stands
// (printed: an interchanged nest, or one another site's rewrite restructured,
// is a different entry) and the rank count in force. A nil *ProofMemo always
// misses; the zero value is ready to use. Safe for concurrent use.
type ProofMemo struct {
	mu sync.Mutex
	m  map[proofKey]any
}

type proofKey struct {
	what string
	site ftn.Pos
	nest string
	np   int
}

// ProveOnce returns the named proof's verdict for op's site, deriving it with
// prove on a miss. Two goroutines missing together both derive it; verdicts
// are deterministic, so either may be the one kept. (Exported for transform's
// tile-order proof.)
func ProveOnce[T any](op *Opportunity, what string, prove func() T) T {
	m := op.proofs
	if m == nil {
		return prove()
	}
	k := op.key
	k.what = what
	m.mu.Lock()
	v, ok := m.m[k]
	m.mu.Unlock()
	if ok {
		return v.(T)
	}
	r := prove()
	m.mu.Lock()
	if m.m == nil {
		m.m = map[proofKey]any{}
	}
	m.m[k] = r
	m.mu.Unlock()
	return r
}
