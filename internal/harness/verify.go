package harness

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/session"
	"repro/internal/tune"
)

// verifyTracker counts the static verification tier's work over one sweep,
// one verdict per content pair: session.Verify owns the proving and the
// store's ledger (so a second sweep in the same process, or a warm process
// sharing an on-disk store, re-verifies nothing); the tracker dedupes
// sightings within this sweep and keeps the counters. Safe for concurrent
// use by the sweep workers.
type verifyTracker struct {
	sess *session.Session

	mu sync.Mutex
	// pairs holds every content pair sighted this sweep; true marks a pair
	// some call proved clean here rather than finding it in the ledger.
	// Counting pairs, not calls, keeps the counters independent of which of
	// two racing workers reaches the ledger first.
	pairs     map[exec.Key]bool
	sightings int64
	dirty     int64 // pairs with findings
	failures  int64
	wallNs    int64
}

func newVerifyTracker(sess *session.Session) *verifyTracker {
	return &verifyTracker{sess: sess, pairs: map[exec.Key]bool{}}
}

// variant statically verifies one (program, plan) variant. It returns
// rendered diagnostics — nil when the variant is clean, or its findings were
// already reported by this sweep (once per pair, not per sighting).
func (vt *verifyTracker) variant(prog *core.Program, pl *plan.Plan) []string {
	start := time.Now()
	v, err := vt.sess.Verify(prog, pl)
	if err != nil {
		// An unappliable plan never produced a variant; there is nothing to
		// verify statically (the tuner already surfaced the error).
		return nil
	}
	return vt.record(v, time.Since(start).Nanoseconds())
}

// record counts one verdict and returns the findings to report for it.
func (vt *verifyTracker) record(v session.Verification, elapsedNs int64) []string {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	vt.wallNs += elapsedNs
	vt.sightings++
	fresh, seen := vt.pairs[v.Key]
	if len(v.Diags) == 0 {
		vt.pairs[v.Key] = fresh || !v.Known
		return nil
	}
	vt.pairs[v.Key] = false
	if seen {
		return nil
	}
	vt.dirty++
	vt.failures += int64(len(v.Diags))
	out := make([]string, len(v.Diags))
	for i, d := range v.Diags {
		out[i] = d.String()
	}
	return out
}

// choice verifies every variant a tuning choice touched: each measured
// candidate plan plus the chosen plan itself.
func (vt *verifyTracker) choice(prog *core.Program, c tune.Choice) []string {
	var fails []string
	if c.Plan == nil {
		return nil
	}
	for _, cd := range c.Candidates {
		if len(cd.Decisions) != len(c.Sites) {
			continue
		}
		cand := *c.Plan
		cand.Sites = make([]plan.SitePlan, len(c.Sites))
		for i := range c.Sites {
			cand.Sites[i] = plan.SitePlan{Site: c.Sites[i].Site, Decision: cd.Decisions[i]}
		}
		fails = append(fails, vt.variant(prog, &cand)...)
	}
	fails = append(fails, vt.variant(prog, c.Plan)...)
	return fails
}

// counts snapshots the tracker's counters: pairs freshly proven clean, clean
// or repeated sightings that proved nothing new, findings, and wall cost.
func (vt *verifyTracker) counts() (verified, skipped, failures, wallNs int64) {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	for _, fresh := range vt.pairs {
		if fresh {
			verified++
		}
	}
	return verified, vt.sightings - verified - vt.dirty, vt.failures, vt.wallNs
}
