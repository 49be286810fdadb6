package tune

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/plan"
)

// Memo caches tuning outcomes by analysis fingerprint: a (program-shape,
// machine) pair that has been tuned once returns its Choice without
// re-running the search. The underlying assumption is the fingerprint's —
// two programs with the same fingerprint present the same tuning problem
// (same sites, same facts, same normalized compute structure, same
// machine), so the search would retrace the same candidates to the same
// winner. This is what turns repeat plan queries from O(sweep) into
// O(lookup) for a long-lived service.
//
// The memo stores deep copies and hands out deep copies: callers mutate
// their Choice (harness rows annotate it) without corrupting the cache.
// Safe for concurrent use.
type Memo struct {
	mu      sync.Mutex
	entries map[string]Choice
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
	return &Memo{entries: map[string]Choice{}}
}

// Lookup returns the memoized choice for the key, deep-copied, and whether
// one exists.
func (m *Memo) Lookup(key string) (Choice, bool) {
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
func (m *Memo) Store(key string, ch Choice) {
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

// MemoKey builds the memo key for a tuning query: the analysis fingerprint
// (which already covers the machine and the program shape) extended with
// every search parameter that steers the outcome — rank count, fixed-K
// baseline, measurement budget, and the oracle's observable arrays. Two
// queries agreeing on all of it would run the identical deterministic
// search.
func MemoKey(fingerprint string, in Input, maxMeasured int, arrays []string) string {
	sorted := append([]string(nil), arrays...)
	sort.Strings(sorted)
	return fmt.Sprintf("%s|np=%d|fixedk=%d|maxm=%d|arrays=%s",
		fingerprint, in.NP, in.FixedK, maxMeasured, strings.Join(sorted, ","))
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
