package tune

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/workload"
)

// machines returns the paper pair, with the scenario's cost override
// applied the way the harness does.
func machines(sc workload.Scenario) []plan.Machine {
	ms := plan.PaperPair()
	if sc.Costs != nil {
		for i := range ms {
			ms[i].Costs = *sc.Costs
		}
	}
	return ms
}

// tuneEach analyzes the scenario once and tunes it under each machine in
// turn through one runner over a fresh in-memory store — a session's
// successive queries, without its memo.
func tuneEach(t *testing.T, sc workload.Scenario, ms []plan.Machine) []Choice {
	t.Helper()
	prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runner := exec.Runner{Store: exec.NewMemStore()}
	var out []Choice
	for _, m := range ms {
		ch, err := Tune(context.Background(), prog, m, Params{NP: sc.NP, FixedK: sc.K, Arrays: sc.Arrays}, runner)
		if err != nil {
			t.Fatalf("%s under %s: %v", sc.Name, m.Name, err)
		}
		out = append(out, ch)
	}
	return out
}

// TestDeterministicChoices: the search is a pure function of its input —
// running it twice must produce byte-identical choices (the property the
// harness's determinism-across-parallelism test builds on).
func TestDeterministicChoices(t *testing.T) {
	sc := workload.GenerateScenarios(workload.GenOptions{Limit: 2})[1]
	a := tuneEach(t, sc, machines(sc))
	b := tuneEach(t, sc, machines(sc))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same input produced different choices:\n%+v\nvs\n%+v", a, b)
	}
}

// TestSameSeedSameChosenPlan: regenerating the corpus from the same seed
// and tuning again must land on the same chosen plan per machine.
func TestSameSeedSameChosenPlan(t *testing.T) {
	pick := func() map[string]plan.Decision {
		sc := workload.GenerateScenarios(workload.GenOptions{Seed: 7, Limit: 4})[3]
		out := map[string]plan.Decision{}
		for _, c := range tuneEach(t, sc, machines(sc)) {
			out[c.Machine] = c.Chosen
		}
		return out
	}
	if a, b := pick(), pick(); !reflect.DeepEqual(a, b) {
		t.Errorf("seed 7 chose %v then %v", a, b)
	}
}

// TestTunedNeverLosesToFixed: the fixed-K default decision is always in
// the candidate set, so the tuned speedup is bounded below by the fixed-K
// speedup, and every choice is backed by an oracle-identical run.
func TestTunedNeverLosesToFixed(t *testing.T) {
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{Limit: 5}) {
		for _, c := range tuneEach(t, sc, machines(sc)) {
			if c.Speedup < c.FixedSpeedup {
				t.Errorf("%s/%s: tuned %.3f worse than fixed %.3f",
					sc.Name, c.Machine, c.Speedup, c.FixedSpeedup)
			}
			if c.Evaluations < 1 {
				t.Errorf("%s/%s: no measured candidates", sc.Name, c.Machine)
			}
			if c.SearchSimNs <= 0 {
				t.Errorf("%s/%s: no recorded search cost", sc.Name, c.Machine)
			}
			var chosenVec []plan.Decision
			for _, sc := range c.Sites {
				chosenVec = append(chosenVec, sc.Decision)
			}
			found := false
			for _, cand := range c.Candidates {
				if reflect.DeepEqual(cand.Decisions, chosenVec) {
					found = true
					if !cand.Identical {
						t.Errorf("%s/%s: chosen plan %+v failed the oracle", sc.Name, c.Machine, cand.Decisions)
					}
				}
			}
			if !found {
				t.Errorf("%s/%s: chosen plan %+v not among candidates", sc.Name, c.Machine, chosenVec)
			}
		}
	}
}

// TestIdentityCandidateNeverLoses: the skip-every-site identity plan seeds
// every search, so the tuned speedup is bounded below by exactly 1.0 — the
// tuner can decline to transform, and on machines where every transform
// loses (the hpc-rdma-2019 class) it must choose the identity plan.
func TestIdentityCandidateNeverLoses(t *testing.T) {
	modern, err := plan.ByName("hpc-rdma-2019")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{Limit: 4}) {
		for _, c := range tuneEach(t, sc, append(machines(sc), modern)) {
			if c.Speedup < 1.0 {
				t.Errorf("%s/%s: tuned speedup %.4f below 1.0 — identity candidate lost",
					sc.Name, c.Machine, c.Speedup)
			}
			// The identity vector is always among the measured candidates,
			// at speedup exactly 1.0, oracle-identical by construction.
			found := false
			for _, cand := range c.Candidates {
				allSkip := len(cand.Decisions) > 0
				for _, d := range cand.Decisions {
					if !d.Skip {
						allSkip = false
					}
				}
				if allSkip {
					found = true
					if cand.Speedup != 1.0 || !cand.Identical {
						t.Errorf("%s/%s: identity candidate %+v, want speedup exactly 1.0 and identical",
							sc.Name, c.Machine, cand)
					}
				}
			}
			if !found {
				t.Errorf("%s/%s: identity candidate missing from the measured set",
					sc.Name, c.Machine)
			}
			// When the tuner keeps the original, it says so coherently: the
			// chosen decision is the canonical skip for every site.
			if c.Chosen.Skip {
				for _, s := range c.Sites {
					if !s.Decision.Skip {
						t.Errorf("%s/%s: headline skip but site %s decision %+v",
							sc.Name, c.Machine, s.Site, s.Decision)
					}
				}
				if c.Speedup != 1.0 {
					t.Errorf("%s/%s: identity plan chosen at speedup %.4f, want exactly 1.0",
						sc.Name, c.Machine, c.Speedup)
				}
			}
		}
	}
}

// TestMeasurementBudget: MaxMeasured caps the simulated pre-push runs.
func TestMeasurementBudget(t *testing.T) {
	sc := workload.GenerateScenarios(workload.GenOptions{Limit: 1})[0]
	prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Tune(context.Background(), prog, machines(sc)[1], Params{NP: sc.NP, FixedK: sc.K, MaxMeasured: 2}, exec.Runner{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ch.Evaluations; got > 2 {
		t.Errorf("evaluations = %d, want ≤ 2", got)
	}
}

// TestTuneRejectsBrokenSource: a program the transformation cannot fire on,
// or whose original run fails, is an error — never a choice.
func TestTuneRejectsBrokenSource(t *testing.T) {
	for _, c := range []struct{ name, src, wantErr string }{
		{"untransformable", `
program p
  implicit none
  include 'mpif.h'
  integer as(1:8), ar(1:8), i, ierr
  do i = 1, 8
    if (i > 2) then
      as(i) = i
    endif
  enddo
  call mpi_alltoall(as, 2, mpi_integer, ar, 2, mpi_integer, mpi_comm_world, ierr)
end program p
`, "does not fire"},
		{"failing original", `
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: np = 4
  integer as(1:32), ar(1:32), i, ierr
  do i = 1, 32
    as(i) = i
  enddo
  call mpi_alltoall(as, 8, mpi_integer, ar, 8, mpi_integer, mpi_comm_world, ierr)
  print *, ar(33)
end program p
`, "original run"},
	} {
		prog, err := core.Analyze(c.src, core.AnalyzeOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := Tune(context.Background(), prog, plan.MPICHGM2005(), Params{NP: 4, FixedK: 4}, exec.Runner{}); err == nil ||
			!strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.wantErr)
		}
	}
}

// TestSharedVariantsAcrossMachines: the same candidate plan is generated
// once and reused for every machine (the Apply memo replaces the old
// Retiler), so evaluations stay per-machine but codegen does not repeat.
func TestSharedVariantsAcrossMachines(t *testing.T) {
	sc := workload.GenerateScenarios(workload.GenOptions{Limit: 2})[1]
	choices := tuneEach(t, sc, machines(sc))
	if len(choices) != 2 {
		t.Fatalf("choices = %d, want 2", len(choices))
	}
	for _, c := range choices {
		if c.OriginalNs <= 0 {
			t.Errorf("%s: no original measurement", c.Machine)
		}
	}
	if choices[0].Machine == choices[1].Machine {
		t.Error("machine names collide")
	}
}

func TestSeedKsUsesMachineCosts(t *testing.T) {
	geo := &geom{psz: 64, trip: 256, perIterBytes: 1024}
	ladder := divisors(64)
	slow := plan.MPICHTCP2005()
	fast := plan.MPICHGM2005()
	a := seedKs(slow, geo, 8, ladder)
	b := seedKs(fast, geo, 8, ladder)
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("no seeds proposed")
	}
	if reflect.DeepEqual(a, b) {
		t.Error("different machines proposed identical seeds — the model is not consulted")
	}
	// Sanity: a machine with a different CPU cost model shifts the
	// compute-balance rung.
	tweaked := fast
	tweaked.Costs = interp.CostModel{Op: 100, Assign: 100, Store: 400, Load: 200, LoopIter: 200, CallOver: 2000}
	c := seedKs(tweaked, geo, 8, ladder)
	if reflect.DeepEqual(b, c) {
		t.Error("changing the CPU cost model did not move any seed")
	}
}

func TestDivisors(t *testing.T) {
	got := divisors(12)
	want := []int64{1, 2, 3, 4, 6, 12}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("divisors(12) = %v, want %v", got, want)
	}
	if d := divisors(0); len(d) != 0 {
		t.Errorf("divisors(0) = %v, want empty", d)
	}
}

func TestSnapToLadder(t *testing.T) {
	ladder := []int64{1, 2, 4, 8, 16}
	cases := []struct{ k, lo, hi int64 }{
		{3, 2, 4},
		{4, 4, 4},
		{100, 16, 16},
		{1, 1, 1},
	}
	for _, c := range cases {
		lo, hi := snapToLadder(ladder, c.k)
		if lo != c.lo || hi != c.hi {
			t.Errorf("snap(%d) = (%d, %d), want (%d, %d)", c.k, lo, hi, c.lo, c.hi)
		}
	}
}

// TestPerSiteDivergenceBeatsUniform: on the multi-site family the
// coordinate-descent stage must find a plan giving each ALLTOALL site its
// own decision that strictly beats the best uniform plan the first stage
// found — the end-to-end payoff of site-keyed plans.
func TestPerSiteDivergenceBeatsUniform(t *testing.T) {
	var sc workload.Scenario
	for _, cand := range workload.GenerateScenarios(workload.GenOptions{}) {
		if cand.Family == "multi" {
			sc = cand
			break
		}
	}
	if sc.Name == "" {
		t.Fatal("no multi scenario in the corpus")
	}
	divergentWins := 0
	for _, c := range tuneEach(t, sc, machines(sc)) {
		if len(c.Sites) != sc.Sites {
			t.Fatalf("%s: %d site choices, want %d", c.Machine, len(c.Sites), sc.Sites)
		}
		for _, s := range c.Sites {
			if len(s.SeedKs) == 0 {
				t.Errorf("%s: site %s has no analytic seeds", c.Machine, s.Site)
			}
		}
		if c.UniformSpeedup <= 0 {
			t.Errorf("%s: no uniform baseline recorded", c.Machine)
		}
		if c.Speedup+1e-12 < c.UniformSpeedup {
			t.Errorf("%s: tuned %.4f below the best uniform plan %.4f — the descent lost ground",
				c.Machine, c.Speedup, c.UniformSpeedup)
		}
		if c.Divergent {
			same := true
			for _, s := range c.Sites[1:] {
				if s.Decision != c.Sites[0].Decision {
					same = false
				}
			}
			if same {
				t.Errorf("%s: flagged divergent but all sites share %+v", c.Machine, c.Sites[0].Decision)
			}
			if c.Speedup > c.UniformSpeedup {
				divergentWins++
			}
		}
		// The chosen plan must replay, not just describe: Apply with it on a
		// fresh analysis and re-simulate — the makespan must reproduce the
		// tuned measurement exactly (virtual time is deterministic).
		if err := c.Plan.Validate(); err != nil {
			t.Errorf("%s: chosen plan invalid: %v", c.Machine, err)
			continue
		}
		prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		src, rep, err := core.Apply(prog, c.Plan)
		if err != nil {
			t.Fatalf("%s: chosen plan does not replay: %v", c.Machine, err)
		}
		if rep.TransformedCount() != sc.Sites {
			t.Fatalf("%s: replayed plan transformed %d sites, want %d", c.Machine, rep.TransformedCount(), sc.Sites)
		}
		var m *plan.Machine
		for _, cand := range machines(sc) {
			if cand.Name == c.Machine {
				cand := cand
				m = &cand
			}
		}
		if m == nil {
			t.Fatalf("machine %s not found", c.Machine)
		}
		res, err := exec.Runner{Engine: exec.Default}.Run(src, sc.NP, m.Costs, m.Profile)
		if err != nil {
			t.Fatalf("%s: replayed plan does not run: %v", c.Machine, err)
		}
		if got := int64(res.Elapsed()); got != c.PrepushNs {
			t.Errorf("%s: replayed plan took %d ns, tuned measurement was %d ns", c.Machine, got, c.PrepushNs)
		}
	}
	if divergentWins == 0 {
		t.Error("no machine's divergent plan strictly beat the best uniform plan on the first multi scenario")
	}
}
