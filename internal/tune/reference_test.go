package tune

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/workload"
)

// referenceKnobs is the knob stage as it was before the census below pruned
// it: five flips in this order, then the uniform stage's second K climb. It
// lives only here, as the search Tune's is held to.
func referenceKnobs() []knob {
	return []knob{
		flip(func(d *plan.Decision) { d.Skip = !d.Skip }),
		flip(func(d *plan.Decision) { d.Interchange = plan.InterchangeOff }),
		flip(func(d *plan.Decision) { d.Interchange = plan.InterchangeOn }),
		flip(func(d *plan.Decision) {
			if d.Wait == plan.WaitPerTile {
				d.Wait = plan.WaitDeferred
			} else {
				d.Wait = plan.WaitPerTile
			}
		}),
		flip(func(d *plan.Decision) {
			if d.SendOrder == plan.SendSequential {
				d.SendOrder = plan.SendStaggered
			} else {
				d.SendOrder = plan.SendSequential
			}
		}),
		// The climb ran after the uniform knob stage, whatever the budget
		// said; climbKnobs skips it once the budget is spent, when a climb
		// can measure nothing anyway.
		func(s *search, si int, ladder []int64) {
			if si < 0 {
				s.climbK(si, ladder)
			}
		},
	}
}

// corpusPoint is one (scenario, machine) search of a corpus sweep.
type corpusPoint struct {
	name string
	ch   Choice
}

// corpusStores holds one variant store per corpus scenario, shared by every
// search tuneCorpus makes of that scenario: the machines of one sweep, as a
// session's successive queries do, and the reference and the pruned sweep —
// a variant either one executed, the other replays (every corpus variant
// certifies, so a replay is that execution).
var corpusStores sync.Map

// tuneCorpus searches the canonical corpus (seed 0) under the default
// sweep's three machines with the given search (Tune, or the reference).
func tuneCorpus(t *testing.T, search func(context.Context, *core.Program, plan.Machine, Params, exec.Runner) (Choice, error)) []corpusPoint {
	t.Helper()
	var out []corpusPoint
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		store, _ := corpusStores.LoadOrStore(sc.Name, exec.NewMemStore())
		runner := exec.Runner{Store: store.(exec.VariantStore)}
		for _, m := range plan.DefaultSweep() {
			if sc.Costs != nil {
				m.Costs = *sc.Costs
			}
			ch, err := search(context.Background(), prog, m, Params{NP: sc.NP, FixedK: sc.K, Arrays: sc.Arrays}, runner)
			if err != nil {
				t.Fatalf("%s under %s: %v", sc.Name, m.Name, err)
			}
			out = append(out, corpusPoint{name: sc.Name, ch: ch})
		}
	}
	return out
}

var reference struct {
	once   sync.Once
	points []corpusPoint
	failed bool
}

// referenceSweep is tuneCorpus of the reference search, computed once for
// the tests that read it.
func referenceSweep(t *testing.T) []corpusPoint {
	t.Helper()
	if testing.Short() {
		t.Skip("searches the whole corpus twice over")
	}
	reference.once.Do(func() {
		reference.failed = true
		reference.points = tuneCorpus(t, func(ctx context.Context, prog *core.Program, m plan.Machine, p Params, runner exec.Runner) (Choice, error) {
			return tune(ctx, prog, m, p, runner, referenceKnobs())
		})
		reference.failed = false
	})
	if reference.failed {
		t.Fatal("the reference sweep failed")
	}
	return reference.points
}

// moveOf names the knob move that measured candidate c while inc was the
// incumbent: the first knob c sets differently on some site, or "K" when
// only tile sizes differ.
func moveOf(c, inc Candidate) string {
	for i, d := range c.Decisions {
		was := inc.Decisions[i]
		switch {
		case d.Skip != was.Skip:
			return "skip"
		case d.Skip:
		case d.Interchange != was.Interchange:
			return "interchange " + string(d.Interchange)
		case d.Wait != was.Wait:
			return "wait " + string(d.Wait)
		case d.SendOrder != was.SendOrder:
			return "send order " + string(d.SendOrder)
		}
	}
	return "K"
}

// TestKnobCensus counts, over the reference sweep, the measured runs each
// knob move spent and how often it was adopted. Each search's candidates are
// read in visit order; a candidate is adopted when it is strictly faster
// than every earlier one (the identity plan, at speedup 1.0, comes first) —
// the climb presumes every priced candidate identical, and only the ones the
// choice reports are measured in full — and it is charged to the knob it
// changes from the incumbent of its time. Per-tile waits, sequential sends
// and forcing the interchange on must never be adopted: that is why Tune
// does not try them.
func TestKnobCensus(t *testing.T) {
	type tally struct{ runs, adopted int }
	census := map[string]*tally{}
	evaluations := 0
	points := referenceSweep(t)
	for _, pt := range points {
		evaluations += pt.ch.Evaluations
		cands := pt.ch.Candidates
		inc := cands[0] // the identity plan: registered, never measured
		for _, c := range cands[1:] {
			move := moveOf(c, inc)
			if census[move] == nil {
				census[move] = &tally{}
			}
			census[move].runs++
			if c.Speedup > inc.Speedup {
				census[move].adopted++
				inc = c
			}
		}
	}
	var moves []string
	for m := range census {
		moves = append(moves, m)
	}
	sort.Strings(moves)
	report := fmt.Sprintf("%d evaluations over %d searches\n%-24s %6s %8s\n", evaluations, len(points), "move", "runs", "adopted")
	for _, m := range moves {
		report += fmt.Sprintf("%-24s %6d %8d\n", m, census[m].runs, census[m].adopted)
	}
	t.Log("\n" + report)
	for _, m := range []string{"wait per-tile", "send order sequential", "interchange on"} {
		switch c := census[m]; {
		case c == nil || c.runs == 0:
			t.Errorf("%s: no measured runs — the census says nothing about it", m)
		case c.adopted != 0:
			t.Errorf("%s: adopted %d times; Tune's knob stage must try it again", m, c.adopted)
		}
	}
}

// TestPrunedSearchMatchesReference: Tune's knob moves against the reference's
// over the corpus and the three sweep machines. Wherever the reference ended
// below its measurement budget, its choice did not depend on where the
// budget cut it, and the pruned search must choose the same plan at the same
// speedup. Where it hit the budget, the pruned search may spend the runs it
// saved and must do no worse. It never measures more, and never ends on its
// own budget, so no chosen plan depends on the budget either.
func TestPrunedSearchMatchesReference(t *testing.T) {
	ref := referenceSweep(t)
	pruned := tuneCorpus(t, Tune)
	if len(pruned) != len(ref) {
		t.Fatalf("%d pruned searches, %d reference searches", len(pruned), len(ref))
	}
	refEvals, prunedEvals := 0, 0
	for i := range ref {
		r, p := ref[i].ch, pruned[i].ch
		at := fmt.Sprintf("%s on %s", ref[i].name, r.Machine)
		refEvals += r.Evaluations
		prunedEvals += p.Evaluations
		budget := resolveMaxMeasured(0, len(r.Sites))
		if p.Evaluations > r.Evaluations {
			t.Errorf("%s: pruned search measured %d runs, the reference %d", at, p.Evaluations, r.Evaluations)
		}
		if p.Evaluations >= budget {
			t.Errorf("%s: pruned search ended on its budget (%d of %d runs)", at, p.Evaluations, budget)
		}
		same := p.Plan.Key() == r.Plan.Key() && p.Speedup == r.Speedup
		switch {
		case r.Evaluations < budget && !same:
			t.Errorf("%s: reference chose %s at %.6f below its budget, pruned %s at %.6f",
				at, r.Plan.Key(), r.Speedup, p.Plan.Key(), p.Speedup)
		case p.Speedup < r.Speedup:
			t.Errorf("%s: reference hit its budget at %.6f, pruned search fell to %.6f", at, r.Speedup, p.Speedup)
		case !same:
			t.Logf("%s: reference hit its %d-run budget at %.5f; pruned search found %.5f in %d runs",
				at, budget, r.Speedup, p.Speedup, p.Evaluations)
		}
	}
	t.Logf("evaluations: reference %d, pruned %d", refEvals, prunedEvals)
}
