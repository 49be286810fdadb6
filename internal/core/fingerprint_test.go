package core_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/tune"
	"repro/internal/workload"
)

// TestFingerprintStable: analyzing the same source twice yields the same
// fingerprint — the memo key is a pure function of the analysis outcome.
func TestFingerprintStable(t *testing.T) {
	src := readTestdata(t, "figure2_before.f90")
	a, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := core.Fingerprint(a, "mpich-gm-2005"), core.Fingerprint(b, "mpich-gm-2005")
	if fa != fb {
		t.Fatalf("fingerprint unstable across re-analysis:\n%s\n%s", fa, fb)
	}
	if !strings.HasPrefix(fa, "fp1-") {
		t.Fatalf("fingerprint %q not versioned", fa)
	}
}

// TestFingerprintMachineAndNPSensitive: the machine name and the analysis
// rank count are part of the tuning problem, so each must change the key.
func TestFingerprintMachineAndNPSensitive(t *testing.T) {
	src := readTestdata(t, "figure2_before.f90")
	p, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gm := core.Fingerprint(p, "mpich-gm-2005")
	if tcp := core.Fingerprint(p, "mpich-tcp-2005"); tcp == gm {
		t.Fatal("fingerprint ignores the machine")
	}
	p8, err := core.Analyze(src, core.AnalyzeOptions{NP: 8})
	if err != nil {
		t.Fatal(err)
	}
	if core.Fingerprint(p8, "mpich-gm-2005") == gm {
		t.Fatal("fingerprint ignores the analysis rank count")
	}
}

// TestFingerprintIgnoresIncidentalSource: two sources presenting the same
// analyzed shape — same sites at the same positions with the same facts —
// are the same tuning problem. A trailing comment changes the bytes but
// not the shape; the sha256 content key would split them, the fingerprint
// must not.
func TestFingerprintIgnoresIncidentalSource(t *testing.T) {
	src := readTestdata(t, "figure2_before.f90")
	lines := strings.SplitN(src, "\n", 2)
	tweaked := lines[0] + " ! incidental comment\n" + lines[1]
	if tweaked == src {
		t.Fatal("tweak did not change the source")
	}
	a, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Analyze(tweaked, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if core.Fingerprint(a, "mpich-gm-2005") != core.Fingerprint(b, "mpich-gm-2005") {
		t.Fatal("fingerprint depends on incidental source bytes")
	}
}

// TestFingerprintSeparatesGeometry: changing the exchange geometry changes
// the candidate tile ladder, so the fingerprint must split — otherwise the
// memo would replay a plan tuned for the wrong shape.
func TestFingerprintSeparatesGeometry(t *testing.T) {
	mk := func(nx int) string {
		return workload.DirectSource(workload.DirectParams{NX: nx, NP: 4})
	}
	a, err := core.Analyze(mk(4096), core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Analyze(mk(8192), core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if core.Fingerprint(a, "mpich-gm-2005") == core.Fingerprint(b, "mpich-gm-2005") {
		t.Fatal("fingerprint blind to exchange geometry")
	}
}

// TestFingerprintCorpusUnique: across the full 40-scenario corpus, every
// scenario's analyzed shape is distinct — no two corpus rows would alias
// in the plan memo on the same machine.
func TestFingerprintCorpusUnique(t *testing.T) {
	scens := workload.GenerateScenarios(workload.GenOptions{})
	seen := map[string]string{} // fingerprint -> scenario name
	for _, sc := range scens {
		p, err := core.Analyze(sc.Source, core.AnalyzeOptions{NP: int64(sc.NP)})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		fp := core.Fingerprint(p, "mpich-gm-2005")
		if prev, ok := seen[fp]; ok {
			t.Fatalf("corpus fingerprint collision: %s and %s", prev, sc.Name)
		}
		seen[fp] = sc.Name
	}
	if len(seen) != len(scens) {
		t.Fatalf("%d fingerprints over %d scenarios", len(seen), len(scens))
	}
}

// TestFingerprintMatchesReference: the fingerprint a Program keeps is the
// one the reference computes afresh — for every corpus scenario and default
// machine, analyzed at NP 0 and at the scenario's rank count — before and
// after Apply replays the six knob plans, and after a search on the same
// Program (one scenario per family): nothing Apply or Tune does moves the
// analyzed AST or Sites under the kept text.
func TestFingerprintMatchesReference(t *testing.T) {
	machines := plan.DefaultSweep()
	agree := func(when string, name string, p *core.Program) {
		t.Helper()
		for _, m := range machines {
			if got, want := core.Fingerprint(p, m.Name), core.ReferenceFingerprint(p, m.Name); got != want {
				t.Fatalf("%s %s on %s: fingerprint %s, reference %s", name, when, m.Name, got, want)
			}
		}
	}
	tuned := map[string]bool{}
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		for _, np := range []int64{0, int64(sc.NP)} {
			p, err := core.Analyze(sc.Source, core.AnalyzeOptions{NP: np})
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			agree("as analyzed", sc.Name, p)
			for _, pl := range knobPlans(sc.K) {
				if _, _, err := core.Apply(p, pl); err != nil {
					t.Fatalf("%s: apply %s: %v", sc.Name, pl.Key(), err)
				}
			}
			agree("after the knob plans", sc.Name, p)
			if np == 0 || tuned[sc.Family] {
				continue
			}
			tuned[sc.Family] = true
			m := plan.MPICHGM2005()
			if _, err := tune.Tune(context.Background(), p, m, tune.Params{NP: sc.NP, FixedK: sc.K, Arrays: sc.Arrays}, exec.Runner{Store: exec.NewMemStore()}); err != nil {
				t.Fatalf("%s: tune: %v", sc.Name, err)
			}
			agree("after a search", sc.Name, p)
		}
	}
}

// TestFingerprintConcurrentFirstCalls: eight goroutines fingerprinting one
// fresh Program at once all get the reference string (the race detector
// watches the one computation they share).
func TestFingerprintConcurrentFirstCalls(t *testing.T) {
	src := readTestdata(t, "figure2_before.f90")
	p, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	machines := plan.DefaultSweep()
	got := make([]string, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = core.Fingerprint(p, machines[g%len(machines)].Name)
		}(g)
	}
	wg.Wait()
	for g, fp := range got {
		if want := core.ReferenceFingerprint(p, machines[g%len(machines)].Name); fp != want {
			t.Errorf("goroutine %d: fingerprint %s, reference %s", g, fp, want)
		}
	}
}
