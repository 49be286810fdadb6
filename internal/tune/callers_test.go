package tune_test

import (
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/plan"
	"repro/internal/session"
	"repro/internal/workload"
)

// These tests hold a tune.Choice to what its two callers do with it: the
// session's plan memo serves it again, and the harness's tiered check
// re-proves it on a second engine. Neither may change the choice.

// TestMemoShortCircuitsRepeatQueries: the second query over the same
// (shape, machine) pair must be served from the memo — same plan, same
// measurements, no additional measured runs against the variant store.
func TestMemoShortCircuitsRepeatQueries(t *testing.T) {
	s, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := workload.DirectSource(workload.DirectParams{NX: 4096, NP: 4})
	machines := []string{"mpich-gm-2005", "mpich-tcp-2005"}
	ask := func() []*session.Result {
		t.Helper()
		var out []*session.Result
		for _, m := range machines {
			res, err := s.Plan(session.Query{Source: src, Machine: m, NP: 4, FixedK: 256})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	n := int64(len(machines))

	first := ask()
	compiledAfterFirst := s.Store().Stats().Compiled
	if compiledAfterFirst == 0 {
		t.Fatal("first tune measured nothing through the store")
	}
	for _, res := range first {
		if res.MemoHit {
			t.Fatalf("%s: fresh search marked as memo hit", res.Choice.Machine)
		}
	}
	if st := s.Stats().Memo; st.Hits != 0 || st.Misses != n || st.Entries != n {
		t.Fatalf("memo stats after first tune = %+v", st)
	}

	second := ask()
	if got := s.Store().Stats().Compiled; got != compiledAfterFirst {
		t.Fatalf("repeat query compiled %d new variants, want 0", got-compiledAfterFirst)
	}
	if st := s.Stats().Memo; st.Hits != n {
		t.Fatalf("memo stats after repeat tune = %+v", st)
	}
	for i, res := range second {
		ch, was := res.Choice, first[i].Choice
		if !res.MemoHit {
			t.Fatalf("%s: repeat query not served from memo", ch.Machine)
		}
		if ch.Plan.Key() != was.Plan.Key() {
			t.Fatalf("%s: memoized plan differs from the tuned plan", ch.Machine)
		}
		if ch.Speedup != was.Speedup || ch.Evaluations != was.Evaluations {
			t.Fatalf("%s: memoized measurements differ: %+v vs %+v", ch.Machine, ch, was)
		}
	}
}

// TestTieredChecking: with a check engine named, every adopted plan (and
// the original baseline) is differentially re-run on that engine; the
// choices themselves must be exactly what the unchecked search picks, and
// each choice must record its oracle runs. The sweep engine itself as
// check engine is a no-op: no check runner, no counted runs.
func TestTieredChecking(t *testing.T) {
	sc := workload.GenerateScenarios(workload.GenOptions{Limit: 3})[2]
	sweep := func(check exec.Engine) []harness.TunedRun {
		t.Helper()
		rep, err := harness.Run(harness.Config{
			Scenarios:       []workload.Scenario{sc},
			Machines:        plan.PaperPair(),
			Tune:            true,
			TuneCheckEngine: check,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Scenarios) != 1 || rep.Summary.Errors != 0 {
			t.Fatalf("sweep of %s failed:\n%s", sc.Name, rep.Table())
		}
		return rep.Scenarios[0].Tuned
	}
	plain := sweep("")
	checked := sweep(exec.EngineWalk)
	if len(checked) != len(plain) || len(plain) == 0 {
		t.Fatalf("checked search produced %d choices, unchecked %d", len(checked), len(plain))
	}
	for i := range checked {
		if checked[i].TieredChecks == 0 {
			t.Errorf("machine %q: no oracle check runs recorded", checked[i].Profile)
		}
		c, p := checked[i], plain[i]
		c.TieredChecks, c.WalkRuns, c.WalkReplays = 0, 0, 0
		p.TieredChecks, p.WalkRuns, p.WalkReplays = 0, 0, 0
		if !reflect.DeepEqual(c, p) {
			t.Errorf("machine %q: tiered checking changed the choice:\n%+v\nvs\n%+v",
				checked[i].Profile, c, p)
		}
	}
	for _, r := range sweep(exec.EngineBytecode) {
		if r.TieredChecks != 0 {
			t.Errorf("machine %q: self-check counted %d runs, want 0", r.Profile, r.TieredChecks)
		}
	}
}
