package tune

import (
	"sync"

	"repro/internal/plan"
)

// Memo stores tuning outcomes under their caller's key: a query answered
// once returns its Choice without re-running the search. The key is any
// comparable value, and it is the caller's promise — two queries under one
// key must present the same search, so that a hit equals what a fresh Tune
// would return. session.Session keys on the analysis fingerprint, the whole
// machine model and every search parameter; that is what turns repeat plan
// queries from O(sweep) into O(lookup) for a long-lived service.
//
// The memo stores deep copies and hands out deep copies: callers mutate
// their Choice (harness rows annotate it) without corrupting the cache.
// Safe for concurrent use.
type Memo struct {
	mu      sync.Mutex
	entries map[any]Choice
	stats   MemoStats
}

// MemoStats counts memo traffic.
type MemoStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int64 `json:"entries"`
}

// NewMemo returns an empty plan memo.
func NewMemo() *Memo {
	return &Memo{entries: map[any]Choice{}}
}

// Lookup returns the memoized choice for the key, deep-copied, and whether
// one exists.
func (m *Memo) Lookup(key any) (Choice, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch, ok := m.entries[key]
	if ok {
		m.stats.Hits++
		return cloneChoice(ch), true
	}
	m.stats.Misses++
	return Choice{}, false
}

// Store memoizes a tuning outcome under the key (deep-copied; the last
// store wins on a racing duplicate — both raced the same search on the
// same problem, so the outcomes agree).
func (m *Memo) Store(key any, ch Choice) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries[key] = cloneChoice(ch)
	m.stats.Entries = int64(len(m.entries))
}

// Stats snapshots the memo counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// cloneChoice deep-copies a Choice: the plan, the per-site choices (and
// their seed slices), and every candidate's decision vector.
func cloneChoice(ch Choice) Choice {
	out := ch
	if ch.Plan != nil {
		p := *ch.Plan
		p.Sites = append([]plan.SitePlan(nil), ch.Plan.Sites...)
		out.Plan = &p
	}
	out.Sites = make([]SiteChoice, len(ch.Sites))
	for i, sc := range ch.Sites {
		out.Sites[i] = sc
		out.Sites[i].SeedKs = append([]int64(nil), sc.SeedKs...)
	}
	out.Candidates = make([]Candidate, len(ch.Candidates))
	for i, c := range ch.Candidates {
		out.Candidates[i] = c
		out.Candidates[i].Decisions = append([]plan.Decision(nil), c.Decisions...)
	}
	return out
}
