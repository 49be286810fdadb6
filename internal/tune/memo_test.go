package tune

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestMemoAliasesShapeIdenticalSources: a source differing only in a
// trailing comment presents the identical tuning problem — the same
// fingerprint and, searched afresh, the same choice — which is what lets a
// memo keyed on fingerprints (session.Session.Tune) serve one from the
// other.
func TestMemoAliasesShapeIdenticalSources(t *testing.T) {
	src := workload.DirectSource(workload.DirectParams{NX: 4096, NP: 4})
	lines := strings.SplitN(src, "\n", 2)
	tweaked := lines[0] + " ! incidental\n" + lines[1]
	m := plan.MPICHGM2005()
	var fps []string
	var choices []Choice
	for _, s := range []string{src, tweaked} {
		prog, err := core.Analyze(s, core.AnalyzeOptions{NP: 4})
		if err != nil {
			t.Fatal(err)
		}
		ch, err := Tune(prog, m, Params{NP: 4, FixedK: 256}, exec.Runner{Store: exec.NewMemStore()})
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, core.Fingerprint(prog, m.Name))
		choices = append(choices, ch)
	}
	if fps[0] != fps[1] {
		t.Fatalf("shape-identical sources fingerprint apart: %s vs %s", fps[0], fps[1])
	}
	if !reflect.DeepEqual(choices[0], choices[1]) {
		t.Errorf("shape-identical sources tuned apart:\n%+v\nvs\n%+v", choices[0], choices[1])
	}
}

// TestMemoHandsOutDeepCopies: mutating a looked-up choice (as harness rows
// do when they annotate plans) must not corrupt the memo.
func TestMemoHandsOutDeepCopies(t *testing.T) {
	memo := NewMemo()
	ch := Choice{
		Machine: "m",
		Plan:    &plan.Plan{Schema: plan.Schema, Sites: []plan.SitePlan{{Site: "1:1", Decision: plan.Decision{K: 8}}}},
		Sites:   []SiteChoice{{Site: "1:1", SeedKs: []int64{2, 4}}},
		Candidates: []Candidate{
			{Decisions: []plan.Decision{{K: 8}}},
		},
	}
	memo.Store("k", ch)

	got, ok := memo.Lookup("k")
	if !ok {
		t.Fatal("stored choice not found")
	}
	got.Plan.Sites[0].Decision.K = 999
	got.Sites[0].SeedKs[0] = 999
	got.Candidates[0].Decisions[0].K = 999

	again, _ := memo.Lookup("k")
	if again.Plan.Sites[0].Decision.K != 8 ||
		again.Sites[0].SeedKs[0] != 2 ||
		again.Candidates[0].Decisions[0].K != 8 {
		t.Fatal("memo entry mutated through a looked-up copy")
	}
	// The stored entry must also be insulated from the caller's original.
	ch.Plan.Sites[0].Decision.K = 777
	final, _ := memo.Lookup("k")
	if final.Plan.Sites[0].Decision.K != 8 {
		t.Fatal("memo entry aliases the caller's plan")
	}
}
