package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/session"
	"repro/internal/workload"
)

// smallCorpus returns a fast, family-diverse prefix of the generated corpus.
func smallCorpus(t testing.TB, n int) []workload.Scenario {
	t.Helper()
	scenarios := workload.GenerateScenarios(workload.GenOptions{Limit: n})
	if len(scenarios) != n {
		t.Fatalf("corpus prefix has %d scenarios, want %d", len(scenarios), n)
	}
	return scenarios
}

// engineSession returns a fresh session running the named engine.
func engineSession(t testing.TB, engine exec.Engine) *session.Session {
	t.Helper()
	sess, err := session.New(session.Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestDifferentialSweep is the end-to-end conformance check on a corpus
// prefix: every transformed program must produce bit-identical observable
// results under both profiles.
func TestDifferentialSweep(t *testing.T) {
	rep, err := Run(Config{Scenarios: smallCorpus(t, 6), Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Errors != 0 {
		t.Fatalf("errors in sweep:\n%s", rep.Table())
	}
	if rep.Summary.Correct != rep.Summary.Scenarios {
		t.Fatalf("correctness oracle failed:\n%s", rep.Table())
	}
	families := map[string]bool{}
	for _, o := range rep.Scenarios {
		families[o.Family] = true
		if want := len(plan.DefaultSweep()); len(o.Profiles) != want {
			t.Errorf("%s: %d profile runs, want %d (the default sweep set)", o.Name, len(o.Profiles), want)
		}
		for _, pr := range o.Profiles {
			if pr.OriginalNs <= 0 || pr.PrepushNs <= 0 {
				t.Errorf("%s/%s: nonpositive makespan", o.Name, pr.Profile)
			}
		}
	}
	if len(families) < 4 {
		t.Errorf("corpus prefix covers %d families, want ≥ 4 (prefix must stay diverse)", len(families))
	}
}

// requireWalkEconomics holds a walk-checked sweep's check counters to the
// rule. Per row: one check for the original, one more unless the adopted plan
// skips every site (its source is the original's). Each original is executed
// once, on its first machine's row, and replayed on the other rows; each
// distinct winner source is executed once, on the first row that adopted it,
// and replayed on the later rows that adopted it too (every corpus skeleton
// certifies).
func requireWalkEconomics(t *testing.T, corpus []workload.Scenario, checked *Report) {
	t.Helper()
	var runs, replays int64
	for i, o := range checked.Scenarios {
		prog, err := core.Analyze(corpus[i].Source, core.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for ri, tr := range o.Tuned {
			skips, sites := tr.skipCounts()
			if tr.TieredChecks < 1 || tr.TieredChecks > 2 || (skips == sites && tr.TieredChecks != 1) {
				t.Errorf("%s on %s: %d checks for a plan skipping %d of %d sites",
					o.Name, tr.Profile, tr.TieredChecks, skips, sites)
			}
			wantRuns, wantReplays := 0, 1
			if ri == 0 {
				wantRuns, wantReplays = 1, 0
			}
			if tr.TieredChecks == 2 {
				src := winnerSource(t, prog, tr)
				if seen[src] {
					wantReplays++
				} else {
					wantRuns++
				}
				seen[src] = true
			}
			if tr.WalkRuns != wantRuns || tr.WalkReplays != wantReplays {
				t.Errorf("%s on %s: %d walk runs, %d replays; want %d, %d",
					o.Name, tr.Profile, tr.WalkRuns, tr.WalkReplays, wantRuns, wantReplays)
			}
			runs, replays = runs+int64(wantRuns), replays+int64(wantReplays)
		}
	}
	if s := checked.Summary; s.WalkRuns != runs || s.WalkReplays != replays || s.TieredChecks != runs+replays {
		t.Errorf("summary: %d checks, %d walk runs, %d replays; want %d runs, %d replays",
			s.TieredChecks, s.WalkRuns, s.WalkReplays, runs, replays)
	}
}

// winnerSource is the source of the plan a tuned row adopted.
func winnerSource(t *testing.T, prog *core.Program, tr TunedRun) string {
	t.Helper()
	pl := &plan.Plan{Schema: plan.Schema, Default: tr.Sites[0].Decision}
	for _, s := range tr.Sites {
		pl.Set(s.Site, s.Decision)
	}
	src, _, err := core.Apply(prog, pl)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// stripReplayCounters zeroes the run-skeleton economics — which search
// reached a shared variant first, so which one replayed it, depends on
// scheduling, on the engine (walk never replays) and on sharding.
func stripReplayCounters(r *Report) {
	r.Summary.ReplayedRuns = 0
	for i := range r.Scenarios {
		for j := range r.Scenarios[i].Tuned {
			r.Scenarios[i].Tuned[j].ReplayedRuns = 0
		}
	}
}

// TestDeterministicAcrossParallelism: the sweep's report must be identical
// regardless of worker count — concurrency must not leak into results.
func TestDeterministicAcrossParallelism(t *testing.T) {
	corpus := smallCorpus(t, 5)
	var reports [][]byte
	for _, par := range []int{1, 4} {
		rep, err := Run(Config{Scenarios: corpus, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		// Wall time and variant-cache traffic vary with scheduling; every
		// measured and derived number must not.
		rep.Summary.SweepWallNs = 0
		rep.Summary.VariantsCompiled = 0
		rep.Summary.CacheHits = 0
		stripReplayCounters(rep)
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, b)
	}
	if string(reports[0]) != string(reports[1]) {
		t.Error("report differs between parallelism 1 and 4")
	}
}

// TestEnginesAgreeFixedAndTuned: sweeping a family-diverse corpus prefix
// under the walk oracle and the compiled engine must produce identical
// reports — fixed measurements, oracle verdicts, and every tuned decision
// — modulo the engine name and the wall/cache counters, on both the fixed
// and the tuned paths. (The full-corpus fixed-path differential lives in
// internal/exec; this is the tuned-path differential at harness level.)
func TestEnginesAgreeFixedAndTuned(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 5
	}
	corpus := smallCorpus(t, n)
	norm := func(r *Report) string {
		r.Engine = ""
		r.Summary.SweepWallNs = 0
		r.Summary.VariantsCompiled = 0
		r.Summary.CacheHits = 0
		stripReplayCounters(r)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, tuned := range []bool{false, true} {
		walk, err := Run(Config{Scenarios: corpus, Tune: tuned, Session: engineSession(t, exec.EngineWalk)})
		if err != nil {
			t.Fatal(err)
		}
		if walk.Engine != string(exec.EngineWalk) {
			t.Fatalf("engine recorded as %q", walk.Engine)
		}
		want := norm(walk)
		fast, err := Run(Config{Scenarios: corpus, Tune: tuned, Session: engineSession(t, exec.EngineBytecode)})
		if err != nil {
			t.Fatal(err)
		}
		if fast.Engine != string(exec.EngineBytecode) {
			t.Fatalf("engine recorded as %q", fast.Engine)
		}
		if got := norm(fast); got != want {
			t.Errorf("tune=%v: walk and bytecode reports differ:\n%s\nvs\n%s", tuned, want, got)
		}
	}
}

// TestCompiledSweepRecordsCacheEconomics: a sweep on the compiling
// (bytecode) engine must report its variant-store traffic and wall time in the summary fields.
// Each Run gets a private session (exact counts, no global state to
// reset); sharing compiled variants across sweeps takes an explicit shared
// session.
func TestCompiledSweepRecordsCacheEconomics(t *testing.T) {
	corpus := smallCorpus(t, 3)
	rep, err := Run(Config{Scenarios: corpus})
	if err != nil {
		t.Fatal(err)
	}
	// 3 scenarios × (original + transformed) variants.
	if rep.Summary.VariantsCompiled != 6 {
		t.Errorf("VariantsCompiled = %d, want 6", rep.Summary.VariantsCompiled)
	}
	// Every variant is looked up once per machine: one compile plus
	// len(machines)-1 hits each.
	wantHits := int64(6 * (len(plan.DefaultSweep()) - 1))
	if rep.Summary.CacheHits != wantHits {
		t.Errorf("CacheHits = %d, want %d", rep.Summary.CacheHits, wantHits)
	}
	if rep.Summary.SweepWallNs <= 0 {
		t.Error("SweepWallNs not recorded")
	}
	// A second private-session sweep compiles everything again (sessions
	// are isolated); the same sweep through a shared session is served
	// from the first sweep's store.
	private, err := Run(Config{Scenarios: corpus})
	if err != nil {
		t.Fatal(err)
	}
	if private.Summary.VariantsCompiled != 6 {
		t.Errorf("private-session sweep compiled %d variants, want 6", private.Summary.VariantsCompiled)
	}
	sess, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(Config{Scenarios: corpus, Session: sess})
	if err != nil {
		t.Fatal(err)
	}
	if first.Summary.VariantsCompiled != 6 {
		t.Errorf("cold shared-session sweep compiled %d variants, want 6", first.Summary.VariantsCompiled)
	}
	again, err := Run(Config{Scenarios: corpus, Session: sess})
	if err != nil {
		t.Fatal(err)
	}
	if again.Summary.VariantsCompiled != 0 {
		t.Errorf("warm shared-session sweep compiled %d variants, want 0", again.Summary.VariantsCompiled)
	}
	// The walk engine measures through the store too, which keeps its
	// skeletons: its traffic is the bytecode sweep's.
	walk, err := Run(Config{Scenarios: corpus, Session: engineSession(t, exec.EngineWalk)})
	if err != nil {
		t.Fatal(err)
	}
	if walk.Summary.VariantsCompiled != 6 || walk.Summary.CacheHits != wantHits {
		t.Errorf("walk sweep drew %d compiles and %d hits from the variant store, want 6 and %d: %+v",
			walk.Summary.VariantsCompiled, walk.Summary.CacheHits, wantHits, walk.Summary)
	}
}

// TestWarmDiskStoreAcrossSessions: two sweeps in fresh sessions over one
// shared -cache-dir: the cold sweep compiles and persists every variant,
// the warm sweep compiles 0 (all disk hits) and reports identical results
// modulo the volatile counters — the CI warm-cache job's contract.
func TestWarmDiskStoreAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	corpus := smallCorpus(t, 3)
	sweep := func() *Report {
		t.Helper()
		store, err := exec.NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := session.New(session.Options{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(Config{Scenarios: corpus, Tune: true, Session: sess})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Summary.Errors != 0 || rep.Summary.Correct != len(corpus) {
			t.Fatalf("sweep failed:\n%s", rep.Table())
		}
		return rep
	}
	cold := sweep()
	if cold.Summary.VariantsCompiled == 0 {
		t.Fatal("cold sweep compiled nothing")
	}
	if cold.Summary.DiskHits != 0 {
		t.Errorf("cold sweep reported %d disk hits over an empty store", cold.Summary.DiskHits)
	}
	warm := sweep()
	if warm.Summary.VariantsCompiled != 0 {
		t.Errorf("warm sweep compiled %d variants, want 0", warm.Summary.VariantsCompiled)
	}
	if warm.Summary.DiskHits != cold.Summary.VariantsCompiled {
		t.Errorf("warm sweep had %d disk hits, want %d (every cold compile)",
			warm.Summary.DiskHits, cold.Summary.VariantsCompiled)
	}
	// Identical results, modulo the volatile execution counters.
	norm := func(r *Report) string {
		r.Summary.SweepWallNs = 0
		r.Summary.VariantsCompiled = 0
		r.Summary.CacheHits = 0
		r.Summary.DiskHits = 0
		stripReplayCounters(r)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := norm(cold), norm(warm); a != b {
		t.Errorf("warm report differs from cold:\n%s\nvs\n%s", a, b)
	}
}

// TestMergeRejectsEngineMismatch: shards swept under different engines
// must not merge — the summed wall/cache counters would be meaningless.
func TestMergeRejectsEngineMismatch(t *testing.T) {
	corpus := smallCorpus(t, 2)
	a, err := Run(Config{Scenarios: corpus[:1], Session: engineSession(t, exec.EngineBytecode)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Scenarios: corpus[1:], Session: engineSession(t, exec.EngineWalk)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge([]*Report{a, b}); err == nil || !strings.Contains(err.Error(), "engine") {
		t.Fatalf("merge of bytecode/walk shards: %v, want engine mismatch error", err)
	}
}

// TestMergeRejectsTuneCheckEngineMismatch: tuned shards cross-checked
// against different oracles (or not at all) carry incomparable
// tiered_checks counters and a meaningless merged tune_check_engine.
func TestMergeRejectsTuneCheckEngineMismatch(t *testing.T) {
	corpus := smallCorpus(t, 2)
	a, err := Run(Config{Scenarios: corpus[:1], Tune: true, TuneCheckEngine: exec.EngineWalk})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Scenarios: corpus[1:], Tune: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge([]*Report{a, b}); err == nil || !strings.Contains(err.Error(), "tune-check") {
		t.Fatalf("merge of mixed tune-check shards: %v, want tune-check mismatch error", err)
	}
}

// TestTieredTuningSweep: a tuned sweep with -tune-check-engine walk must
// re-check every adopted plan on the oracle, count those runs, and adopt
// exactly the plans an unchecked sweep adopts — the check is a proof
// obligation, never a behavioral fork.
func TestTieredTuningSweep(t *testing.T) {
	corpus := smallCorpus(t, 4)
	checked, err := Run(Config{Scenarios: corpus, Tune: true, TuneCheckEngine: exec.EngineWalk})
	if err != nil {
		t.Fatal(err)
	}
	if checked.TuneCheckEngine != string(exec.EngineWalk) {
		t.Fatalf("report tune_check_engine = %q, want %q", checked.TuneCheckEngine, exec.EngineWalk)
	}
	if checked.Summary.TieredChecks == 0 {
		t.Fatal("tiered sweep recorded zero oracle check runs")
	}
	requireWalkEconomics(t, corpus, checked)
	plain, err := Run(Config{Scenarios: corpus, Tune: true})
	if err != nil {
		t.Fatal(err)
	}
	norm := func(r *Report) string {
		r.TuneCheckEngine = ""
		r.Summary.SweepWallNs = 0
		r.Summary.VariantsCompiled = 0
		r.Summary.CacheHits = 0
		r.Summary.TieredChecks, r.Summary.WalkRuns, r.Summary.WalkReplays = 0, 0, 0
		stripReplayCounters(r)
		for i := range r.Scenarios {
			for j := range r.Scenarios[i].Tuned {
				tr := &r.Scenarios[i].Tuned[j]
				tr.TieredChecks, tr.WalkRuns, tr.WalkReplays = 0, 0, 0
			}
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := norm(checked), norm(plain); a != b {
		t.Errorf("tiered checking changed the sweep:\n%s\nvs\n%s", a, b)
	}
	// A no-op check engine (the sweep engine itself) runs no checks.
	noop, err := Run(Config{Scenarios: corpus[:1], Tune: true, TuneCheckEngine: exec.Default})
	if err != nil {
		t.Fatal(err)
	}
	if noop.TuneCheckEngine != "" || noop.Summary.TieredChecks != 0 {
		t.Fatalf("self-check sweep recorded engine %q / %d checks, want none",
			noop.TuneCheckEngine, noop.Summary.TieredChecks)
	}
}

// stripEconomics zeroes everything that depends on what a sweep's session
// already knew — wall time, store and verify-ledger traffic, replays — so
// what is left is the sweep's answer.
func stripEconomics(r *Report) {
	r.Summary.SweepWallNs = 0
	r.Summary.VariantsCompiled, r.Summary.CacheHits, r.Summary.DiskHits = 0, 0, 0
	r.Summary.VerifiedVariants, r.Summary.VerifySkipped, r.Summary.VerifyWallNs = 0, 0, 0
	stripReplayCounters(r)
}

// tunedRows counts a report's tuned rows.
func tunedRows(r *Report) int64 {
	var n int64
	for _, o := range r.Scenarios {
		n += int64(len(o.Tuned))
	}
	return n
}

// TestMemoEqualsNoMemo: a tuned, verified sweep run in a private session,
// through an explicit session, and again through that same session gives
// one answer. The third run is answered by the plan memo — every row a
// hit — and compiles nothing.
func TestMemoEqualsNoMemo(t *testing.T) {
	corpus := smallCorpus(t, 4)
	cfg := Config{Scenarios: corpus, Tune: true, Verify: true}
	sweep := func(sess *session.Session) *Report {
		t.Helper()
		c := cfg
		c.Session = sess
		rep, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Summary.Errors != 0 || rep.Summary.Correct != len(corpus) {
			t.Fatalf("sweep failed:\n%s", rep.Table())
		}
		return rep
	}
	private := sweep(nil)
	sess := engineSession(t, exec.Default)
	first := sweep(sess)
	hitsBefore := sess.Stats().Memo.Hits
	again := sweep(sess)
	if hits := sess.Stats().Memo.Hits - hitsBefore; hits != tunedRows(again) || hits == 0 {
		t.Errorf("repeat sweep: %d memo hits for %d tuned rows", hits, tunedRows(again))
	}
	if again.Summary.VariantsCompiled != 0 {
		t.Errorf("repeat sweep compiled %d variants, want 0", again.Summary.VariantsCompiled)
	}
	var want string
	for i, r := range []*Report{private, first, again} {
		stripEconomics(r)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = string(b)
		} else if string(b) != want {
			t.Errorf("sweep %d differs from the private-session sweep:\n%s\nvs\n%s", i, b, want)
		}
	}
}

// TestMemoHitsAreWalkChecked: the tiered check runs after every choice, memo
// hits included. A walk-checked sweep through a session whose memo an
// unchecked sweep filled answers every row from the memo, checks every row,
// and equals a fresh walk-checked sweep; a second one replays every check.
func TestMemoHitsAreWalkChecked(t *testing.T) {
	corpus := smallCorpus(t, 3)
	sess := engineSession(t, exec.Default)
	if _, err := Run(Config{Scenarios: corpus, Tune: true, Session: sess}); err != nil {
		t.Fatal(err)
	}
	hitsBefore := sess.Stats().Memo.Hits
	checked := Config{Scenarios: corpus, Tune: true, TuneCheckEngine: exec.EngineWalk}
	fresh, err := Run(checked)
	if err != nil {
		t.Fatal(err)
	}
	checked.Session = sess
	warm, err := Run(checked)
	if err != nil {
		t.Fatal(err)
	}
	if hits := sess.Stats().Memo.Hits - hitsBefore; hits != tunedRows(warm) || hits == 0 {
		t.Fatalf("checked sweep over a filled memo: %d hits for %d tuned rows", hits, tunedRows(warm))
	}
	for _, o := range warm.Scenarios {
		for _, tr := range o.Tuned {
			if tr.TieredChecks < 1 {
				t.Errorf("%s on %s: memo hit with %d walk checks", o.Name, tr.Profile, tr.TieredChecks)
			}
		}
	}
	stripEconomics(fresh)
	stripEconomics(warm)
	a, _ := json.Marshal(fresh)
	b, _ := json.Marshal(warm)
	if string(a) != string(b) {
		t.Errorf("checked sweep over a filled memo differs from a fresh checked sweep:\n%s\nvs\n%s", b, a)
	}
	// The session's variants now hold the walk's skeletons: a second checked
	// sweep through it replays every check and walks nothing.
	again, err := Run(checked)
	if err != nil {
		t.Fatal(err)
	}
	if s := again.Summary; s.TieredChecks != warm.Summary.TieredChecks || s.WalkRuns != 0 || s.WalkReplays != s.TieredChecks {
		t.Errorf("second checked sweep in one session: %d checks paid by %d walk runs and %d replays; want %d, all replays",
			s.TieredChecks, s.WalkRuns, s.WalkReplays, warm.Summary.TieredChecks)
	}
}

// TestSeedReproducible: the same seed yields the same corpus; a different
// seed yields different kernels (and the sweep still passes on them).
func TestSeedReproducible(t *testing.T) {
	a := workload.GenerateScenarios(workload.GenOptions{Seed: 42})
	b := workload.GenerateScenarios(workload.GenOptions{Seed: 42})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different corpora")
	}
	c := workload.GenerateScenarios(workload.GenOptions{Seed: 43})
	differ := false
	for i := range a {
		if a[i].Source != c[i].Source {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("different seeds produced identical kernel sources")
	}

	// A salted corpus must still pass the oracle (spot-check a prefix).
	rep, err := Run(Config{Scenarios: a[:3], Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Correct != 3 || rep.Summary.Errors != 0 {
		t.Fatalf("salted corpus failed:\n%s", rep.Table())
	}
}

// TestCorpusShape pins the acceptance-level properties of the default
// corpus: at least 20 scenarios, unique names, both message regimes, and
// every kernel family represented.
func TestCorpusShape(t *testing.T) {
	scenarios := workload.GenerateScenarios(workload.GenOptions{})
	if len(scenarios) < 20 {
		t.Fatalf("default corpus has %d scenarios, want ≥ 20", len(scenarios))
	}
	names := map[string]bool{}
	families := map[string]int{}
	regimes := map[string]int{}
	for _, sc := range scenarios {
		if names[sc.Name] {
			t.Errorf("duplicate scenario name %s", sc.Name)
		}
		names[sc.Name] = true
		families[sc.Family]++
		regimes[sc.Regime]++
		if sc.NP < 2 {
			t.Errorf("%s: np=%d", sc.Name, sc.NP)
		}
	}
	for _, f := range []string{"direct", "inner3d", "indirect", "fft", "lu", "sort", "ragged", "xchg", "multi"} {
		if families[f] == 0 {
			t.Errorf("family %s missing from corpus", f)
		}
	}
	if regimes["eager"] == 0 || regimes["rendezvous"] == 0 {
		t.Errorf("corpus misses a message regime: %v", regimes)
	}
}

// TestWriteJSON checks the artifact round-trips with the expected schema.
func TestWriteJSON(t *testing.T) {
	rep, err := Run(Config{Scenarios: smallCorpus(t, 2), Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_harness.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema {
		t.Errorf("schema %q, want %q", back.Schema, Schema)
	}
	if len(back.Scenarios) != 2 {
		t.Errorf("%d scenarios in artifact, want 2", len(back.Scenarios))
	}
	if !strings.HasSuffix(string(b), "\n") {
		t.Error("artifact should end with a newline")
	}
}

// TestLeftoverScenariosExerciseStep3: the ragged family must actually take
// the §3.6 step-3 leftover path (K does not divide the tiled extent) and
// still pass the oracle end-to-end.
func TestLeftoverScenariosExerciseStep3(t *testing.T) {
	var ragged []workload.Scenario
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		if sc.Family == "ragged" {
			ragged = append(ragged, sc)
		}
	}
	if len(ragged) < 3 {
		t.Fatalf("only %d ragged scenarios, want ≥ 3", len(ragged))
	}
	rep, err := Run(Config{Scenarios: ragged[:3], Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Correct != 3 || rep.Summary.Errors != 0 {
		t.Fatalf("ragged scenarios failed:\n%s", rep.Table())
	}
}

// TestTunedSweep: tuned mode attaches per-profile choices to every clean
// scenario, never loses to the fixed K, and fills the per-profile summary.
func TestTunedSweep(t *testing.T) {
	rep, err := Run(Config{Scenarios: smallCorpus(t, 3), Parallelism: 3, Tune: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Errors != 0 || rep.Summary.Correct != 3 {
		t.Fatalf("tuned sweep failed:\n%s", rep.Table())
	}
	for _, o := range rep.Scenarios {
		if len(o.Tuned) != len(o.Profiles) {
			t.Fatalf("%s: %d tuned entries for %d profiles", o.Name, len(o.Tuned), len(o.Profiles))
		}
		for i, tr := range o.Tuned {
			pr := o.Profiles[i]
			if tr.Profile != pr.Profile || tr.Offload != pr.Offload {
				t.Errorf("%s: tuned row %d mismatched profile metadata", o.Name, i)
			}
			if tr.Plan.Normalize().Skip {
				// An identity plan declines the transformation: no tile
				// size to report, and the tuned run is the original.
				if tr.ChosenK != 0 {
					t.Errorf("%s/%s: identity plan with chosen_k %d, want 0", o.Name, tr.Profile, tr.ChosenK)
				}
				if tr.TunedSpeedup != 1.0 {
					t.Errorf("%s/%s: identity plan with tuned speedup %.4f, want exactly 1.0", o.Name, tr.Profile, tr.TunedSpeedup)
				}
			} else if tr.ChosenK < 1 || tr.Plan.K != tr.ChosenK {
				t.Errorf("%s/%s: chosen plan %+v vs chosen_k %d", o.Name, tr.Profile, tr.Plan, tr.ChosenK)
			}
			if tr.TunedSpeedup < 1.0 {
				t.Errorf("%s/%s: tuned speedup %.4f below 1.0 — identity plan should have won",
					o.Name, tr.Profile, tr.TunedSpeedup)
			}
			if err := tr.Plan.Validate(); err != nil {
				t.Errorf("%s/%s: chosen plan invalid: %v", o.Name, tr.Profile, err)
			}
			if tr.TunedSpeedup+1e-12 < pr.Speedup {
				t.Errorf("%s/%s: tuned speedup %.4f below fixed %.4f",
					o.Name, tr.Profile, tr.TunedSpeedup, pr.Speedup)
			}
			if tr.Evaluations < 1 || tr.SearchSimNs <= 0 {
				t.Errorf("%s/%s: search cost not recorded (%d evals, %d sim ns)",
					o.Name, tr.Profile, tr.Evaluations, tr.SearchSimNs)
			}
		}
	}
	for _, ps := range rep.Summary.PerProfile {
		if ps.TunedGeomean <= 0 {
			t.Errorf("profile %s: tuned geomean missing", ps.Profile)
		}
		if ps.TunedGeomean+1e-12 < ps.Geomean {
			t.Errorf("profile %s: tuned geomean %.4f below fixed %.4f",
				ps.Profile, ps.TunedGeomean, ps.Geomean)
		}
	}
	if !strings.Contains(rep.Table(), "tuned plan") {
		t.Error("tuned table missing the chosen-plan column")
	}
}

// TestMergeShards: splitting a corpus into shards, sweeping each, and
// merging must reproduce the unsharded report byte for byte.
func TestMergeShards(t *testing.T) {
	corpus := smallCorpus(t, 6)
	whole, err := Run(Config{Scenarios: corpus, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	var shards []*Report
	for s := 0; s < 2; s++ {
		var part []workload.Scenario
		for i, sc := range corpus {
			if i%2 == s {
				part = append(part, sc)
			}
		}
		rep, err := Run(Config{Scenarios: part, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, rep)
	}
	// Merge in reverse order to prove the result is order-independent.
	merged, err := Merge([]*Report{shards[1], shards[0]})
	if err != nil {
		t.Fatal(err)
	}
	// Wall time and variant-store traffic are execution facts, not corpus
	// facts: the shards legitimately spend different wall time and hit
	// their stores differently than the unsharded sweep. Everything else
	// must agree byte for byte.
	for _, r := range []*Report{whole, merged} {
		r.Summary.SweepWallNs = 0
		r.Summary.VariantsCompiled = 0
		r.Summary.CacheHits = 0
		r.Summary.DiskHits = 0
		stripReplayCounters(r)
	}
	a, _ := json.Marshal(whole)
	b, _ := json.Marshal(merged)
	if string(a) != string(b) {
		t.Errorf("merged report differs from the unsharded sweep:\n%s\nvs\n%s", a, b)
	}
}

// TestReplayCountersSumAndMerge: a tuned sweep's summary carries the sum of
// its rows' replayed runs, Merge the sum of its shards', and a sweep replays
// at all (the second and third machine's searches of a scenario find the
// first's variants in the session's store).
func TestReplayCountersSumAndMerge(t *testing.T) {
	corpus := smallCorpus(t, 2)
	var shards []*Report
	var replayed int64
	for _, sc := range corpus {
		rep, err := Run(Config{Scenarios: []workload.Scenario{sc}, Tune: true})
		if err != nil {
			t.Fatal(err)
		}
		var rows int64
		for _, tr := range rep.Scenarios[0].Tuned {
			rows += int64(tr.ReplayedRuns)
		}
		if rep.Summary.ReplayedRuns != rows || rows == 0 {
			t.Fatalf("%s: summary %d replayed, rows %d", sc.Name, rep.Summary.ReplayedRuns, rows)
		}
		replayed += rows
		shards = append(shards, rep)
	}
	merged, err := Merge(shards)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Summary.ReplayedRuns != replayed {
		t.Errorf("merged summary %d replayed, shards sum to %d", merged.Summary.ReplayedRuns, replayed)
	}
}

// TestMergeRejections: overlapping shards and foreign schemas must fail
// loudly instead of silently double counting.
func TestMergeRejections(t *testing.T) {
	corpus := smallCorpus(t, 2)
	rep, err := Run(Config{Scenarios: corpus, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge([]*Report{rep, rep}); err == nil {
		t.Error("merging overlapping shards succeeded")
	}
	old := &Report{Schema: "repro/bench-harness/v2"}
	if _, err := Merge([]*Report{rep, old}); err == nil {
		t.Error("merging a v2 artifact succeeded")
	}
	if _, err := Merge(nil); err == nil {
		t.Error("merging nothing succeeded")
	}

	// Shards swept under different machine sets, seeds, or tune modes must
	// not fold into one aggregate.
	reshape := func(mutate func(*Outcome)) *Report {
		clone := *rep
		clone.Scenarios = append([]Outcome(nil), rep.Scenarios...)
		for i := range clone.Scenarios {
			o := &clone.Scenarios[i]
			o.Profiles = append([]ProfileRun(nil), o.Profiles...) // unshare
			o.Index += len(rep.Scenarios)                         // disjoint indices
			mutate(o)
		}
		return &clone
	}
	otherMachines := reshape(func(o *Outcome) {
		for i := range o.Profiles {
			o.Profiles[i].Profile = "hpc-rdma-2019"
		}
	})
	if _, err := Merge([]*Report{rep, otherMachines}); err == nil {
		t.Error("merging shards with different machine sets succeeded")
	}
	otherSeed := reshape(func(o *Outcome) { o.Seed = 7 })
	if _, err := Merge([]*Report{rep, otherSeed}); err == nil {
		t.Error("merging shards with different corpus seeds succeeded")
	}
	tunedShard := reshape(func(o *Outcome) {
		o.Tuned = []TunedRun{{Profile: o.Profiles[0].Profile, TunedSpeedup: 1.1, Plan: plan.Decision{K: 4}.Normalize()}}
	})
	if _, err := Merge([]*Report{rep, tunedShard}); err == nil {
		t.Error("merging tuned and untuned shards succeeded")
	}
}

// TestReadJSONSchemaGate: ReadJSON refuses artifacts from other schema
// versions.
func TestReadJSONSchemaGate(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(Config{Scenarios: smallCorpus(t, 1), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.json")
	if err := rep.WriteJSON(good); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(good); err != nil {
		t.Errorf("ReadJSON rejected a fresh artifact: %v", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"repro/bench-harness/v2"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(bad); err == nil {
		t.Error("ReadJSON accepted a v2 artifact")
	}
}

// TestNonDefaultPlanCounting: summarize must count tuned rows whose plan
// differs from the fixed decision in a non-K knob — and only those.
func TestNonDefaultPlanCounting(t *testing.T) {
	fixed := plan.Decision{K: 8}.Normalize()
	outcomes := []Outcome{
		{
			Name: "a", Identical: true, Plan: fixed,
			Profiles: []ProfileRun{{Profile: "p", Speedup: 1.2}},
			Tuned: []TunedRun{
				{Profile: "p", TunedSpeedup: 1.3, Plan: plan.Decision{K: 4}.Normalize()},                                   // K-only change
				{Profile: "q", TunedSpeedup: 1.4, Plan: plan.Decision{K: 8, Wait: plan.WaitPerTile}.Normalize()},           // non-K knob
				{Profile: "r", TunedSpeedup: 1.1, Plan: plan.Decision{K: 2, Interchange: plan.InterchangeOff}.Normalize()}, // both
			},
		},
	}
	s := summarize(outcomes)
	if s.NonDefaultPlans != 2 {
		t.Errorf("NonDefaultPlans = %d, want 2", s.NonDefaultPlans)
	}
}

// TestSummaryCountsNonPositiveSpeedups: a zero-speedup pathology must be
// counted and surfaced, not silently dropped from the geomean.
func TestSummaryCountsNonPositiveSpeedups(t *testing.T) {
	outcomes := []Outcome{
		{
			Name: "a", Identical: true,
			Profiles: []ProfileRun{
				{Profile: "p", Offload: true, Speedup: 2.0},
				{Profile: "q", Speedup: 0},
			},
		},
		{
			Name: "b", Identical: true,
			Profiles: []ProfileRun{
				{Profile: "p", Offload: true, Speedup: 0.5},
				{Profile: "q", Speedup: -1},
			},
			Tuned: []TunedRun{{Profile: "q", TunedSpeedup: 0}},
		},
	}
	s := summarize(outcomes)
	if s.NonPositive != 3 {
		t.Errorf("NonPositive = %d, want 3", s.NonPositive)
	}
	var p, q *ProfileSummary
	for i := range s.PerProfile {
		switch s.PerProfile[i].Profile {
		case "p":
			p = &s.PerProfile[i]
		case "q":
			q = &s.PerProfile[i]
		}
	}
	if p == nil || q == nil {
		t.Fatalf("per-profile rows missing: %+v", s.PerProfile)
	}
	if !p.Offload || q.Offload {
		t.Error("offload flags not carried into the per-profile summary")
	}
	if p.NonPositive != 0 || q.NonPositive != 3 {
		t.Errorf("per-profile NonPositive = %d/%d, want 0/3", p.NonPositive, q.NonPositive)
	}
	if p.Geomean != 1.0 {
		t.Errorf("geomean(2.0, 0.5) = %v, want 1.0", p.Geomean)
	}
}

// TestBrokenScenarioIsolated: an unparseable scenario, or one whose
// transformation is rejected (a conditional write cannot be proven final),
// must not take down the sweep — each is reported in its outcome and the
// summary.
func TestBrokenScenarioIsolated(t *testing.T) {
	good := smallCorpus(t, 1)
	bad := workload.Scenario{
		Name: "broken/unparseable", Family: "direct",
		Source: "this is not fortran", NP: 4, K: 2,
	}
	rejected := workload.Scenario{
		Name: "broken/rejected", Family: "direct", NP: 4, K: 2,
		Source: `
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
`}
	rep, err := Run(Config{Scenarios: []workload.Scenario{bad, rejected, good[0]}, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Errors != 2 {
		t.Fatalf("errors = %d, want 2:\n%s", rep.Summary.Errors, rep.Table())
	}
	if rep.Scenarios[0].Err == "" {
		t.Error("broken scenario has no recorded error")
	}
	if !strings.Contains(rep.Scenarios[1].Err, "transform did not fire") {
		t.Errorf("rejected scenario's error = %q, want the transform-did-not-fire reason", rep.Scenarios[1].Err)
	}
	if rep.Summary.Correct != 1 {
		t.Errorf("good scenario should still pass (correct=%d)", rep.Summary.Correct)
	}
}

// TestMultiSiteScenarios: the multi family runs the full differential
// chain — every site rewritten, every receive array compared — and passes
// the oracle end-to-end.
func TestMultiSiteScenarios(t *testing.T) {
	var multi []workload.Scenario
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		if sc.Family == "multi" {
			multi = append(multi, sc)
		}
	}
	if len(multi) < 3 {
		t.Fatalf("only %d multi scenarios, want ≥ 3", len(multi))
	}
	sites := map[int]bool{}
	for _, sc := range multi {
		sites[sc.Sites] = true
		if len(sc.Arrays) != sc.Sites {
			t.Errorf("%s: %d oracle arrays for %d sites", sc.Name, len(sc.Arrays), sc.Sites)
		}
	}
	if !sites[2] || !sites[3] {
		t.Errorf("multi family should cover 2- and 3-site programs, got %v", sites)
	}
	rep, err := Run(Config{Scenarios: multi, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Correct != len(multi) || rep.Summary.Errors != 0 {
		t.Fatalf("multi scenarios failed:\n%s", rep.Table())
	}
	for _, o := range rep.Scenarios {
		want := 2
		if strings.HasPrefix(o.Name, "multi/s3/") {
			want = 3
		}
		if o.TransformedSites != want {
			t.Errorf("%s: %d sites transformed, want %d", o.Name, o.TransformedSites, want)
		}
	}
}

// TestTunedMultiSiteDivergence: a tuned sweep over a multi scenario must
// record per-site decisions and seeds in the artifact, count divergent
// plans in the summary, and show the divergent plan beating the best
// uniform plan on at least one machine.
func TestTunedMultiSiteDivergence(t *testing.T) {
	var multi *workload.Scenario
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		if sc.Family == "multi" {
			sc := sc
			multi = &sc
			break
		}
	}
	if multi == nil {
		t.Fatal("no multi scenario")
	}
	rep, err := Run(Config{Scenarios: []workload.Scenario{*multi}, Parallelism: 1, Tune: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Errors != 0 || rep.Summary.Correct != 1 {
		t.Fatalf("tuned multi sweep failed:\n%s", rep.Table())
	}
	if rep.Summary.DivergentPlans == 0 {
		t.Fatalf("no divergent plans recorded:\n%s", rep.Table())
	}
	beats := false
	for _, tr := range rep.Scenarios[0].Tuned {
		if len(tr.Sites) != multi.Sites {
			t.Errorf("%s: tuned row has %d sites, want %d", tr.Profile, len(tr.Sites), multi.Sites)
		}
		for _, ts := range tr.Sites {
			if len(ts.SeedKs) == 0 {
				t.Errorf("%s/%s: no per-site analytic seeds in the artifact", tr.Profile, ts.Site)
			}
		}
		if tr.Divergent {
			if tr.UniformSpeedup <= 0 {
				t.Errorf("%s: divergent row missing the uniform baseline", tr.Profile)
			}
			if tr.TunedSpeedup > tr.UniformSpeedup {
				beats = true
			}
		}
	}
	if !beats {
		t.Error("no divergent tuned plan strictly beat the best uniform plan")
	}
	if !strings.Contains(rep.Table(), "|") {
		t.Error("table does not render the divergent per-site plan")
	}
}

// TestDivergentPlanCounting: summarize counts tuned rows flagged divergent
// — and only those.
func TestDivergentPlanCounting(t *testing.T) {
	fixed := plan.Decision{K: 8}.Normalize()
	outcomes := []Outcome{
		{
			Name: "a", Identical: true, Plan: fixed,
			Profiles: []ProfileRun{{Profile: "p", Speedup: 1.2}},
			Tuned: []TunedRun{
				{Profile: "p", TunedSpeedup: 1.3, Plan: plan.Decision{K: 4}.Normalize(), Divergent: true},
				{Profile: "q", TunedSpeedup: 1.4, Plan: plan.Decision{K: 8}.Normalize()},
			},
		},
	}
	s := summarize(outcomes)
	if s.DivergentPlans != 1 {
		t.Errorf("DivergentPlans = %d, want 1", s.DivergentPlans)
	}
}

// TestMergeRejectsReportLevelMachineMismatch: shards swept under different
// machine sets must be rejected from the report-level machine list even
// when their outcomes cannot be compared (e.g. every scenario errored).
func TestMergeRejectsReportLevelMachineMismatch(t *testing.T) {
	corpus := smallCorpus(t, 2)
	a, err := Run(Config{Scenarios: corpus[:1], Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	// An all-errored shard carries no outcome profile rows — only the
	// report-level machine list can catch the mismatch.
	b := &Report{
		Schema:   Schema,
		Engine:   a.Engine,
		Machines: []string{"hpc-rdma-2019"},
		Scenarios: []Outcome{{
			Index: corpus[1].Index, Name: corpus[1].Name, Seed: corpus[1].Seed,
			Err: "synthetic failure",
		}},
	}
	if _, err := Merge([]*Report{a, b}); err == nil {
		t.Fatal("merge accepted shards with mismatched machine sets")
	} else if !strings.Contains(err.Error(), "machine set") {
		t.Errorf("unhelpful merge error: %v", err)
	}
	// Same machines merge fine.
	b.Machines = append([]string(nil), a.Machines...)
	if _, err := Merge([]*Report{a, b}); err != nil {
		t.Fatalf("merge rejected matching shards: %v", err)
	}
}

// TestCompareBaseline: the regression gate compares per-profile geomeans
// over the scenario intersection, fails on regressions beyond tolerance,
// and passes on improvements or in-tolerance noise.
func TestCompareBaseline(t *testing.T) {
	mk := func(speedups map[string][]float64) *Report {
		// speedups: profile -> per-scenario speedup (index i = scenario i).
		var n int
		for _, v := range speedups {
			n = len(v)
		}
		rep := &Report{Schema: Schema}
		for i := 0; i < n; i++ {
			o := Outcome{Index: i, Name: fmt.Sprintf("s%d", i), Identical: true}
			for _, prof := range []string{"p", "q"} {
				v, ok := speedups[prof]
				if !ok {
					continue
				}
				o.Profiles = append(o.Profiles, ProfileRun{Profile: prof, Speedup: v[i]})
			}
			rep.Scenarios = append(rep.Scenarios, o)
		}
		rep.Summary = summarize(rep.Scenarios)
		return rep
	}
	base := mk(map[string][]float64{"p": {1.2, 1.1, 1.3}, "q": {1.0, 1.0, 1.0}})

	// Identical sweep: clean.
	if v := CompareBaseline(mk(map[string][]float64{"p": {1.2, 1.1, 1.3}, "q": {1.0, 1.0, 1.0}}), base, 0.01); len(v) != 0 {
		t.Errorf("identical sweep flagged: %v", v)
	}
	// A clear regression on p fails.
	if v := CompareBaseline(mk(map[string][]float64{"p": {1.0, 0.9, 1.0}, "q": {1.0, 1.0, 1.0}}), base, 0.01); len(v) == 0 {
		t.Error("regression passed the gate")
	} else if !strings.Contains(v[0], "p") {
		t.Errorf("violation does not name the profile: %v", v)
	}
	// Improvements never fail.
	if v := CompareBaseline(mk(map[string][]float64{"p": {2.0, 2.0, 2.0}, "q": {1.5, 1.5, 1.5}}), base, 0.01); len(v) != 0 {
		t.Errorf("improvement flagged: %v", v)
	}
	// Within-tolerance noise passes (0.5% drop, 1% tolerance).
	if v := CompareBaseline(mk(map[string][]float64{"p": {1.194, 1.095, 1.293}, "q": {1.0, 1.0, 1.0}}), base, 0.01); len(v) != 0 {
		t.Errorf("in-tolerance drift flagged: %v", v)
	}
	// A truncated sweep gates on the intersection only: scenario 0 alone,
	// with the baseline's own value, passes even though the other rows are
	// missing.
	trunc := mk(map[string][]float64{"p": {1.2}, "q": {1.0}})
	if v := CompareBaseline(trunc, base, 0.01); len(v) != 0 {
		t.Errorf("truncated sweep flagged: %v", v)
	}
	// Disjoint corpora are an explicit error, not a silent pass.
	disjoint := mk(map[string][]float64{"p": {1.2}, "q": {1.0}})
	for i := range disjoint.Scenarios {
		disjoint.Scenarios[i].Name = "other"
	}
	if v := CompareBaseline(disjoint, base, 0.01); len(v) == 0 {
		t.Error("disjoint corpora passed silently")
	}
}

// TestCompareBaselineMissingProfile: a profile present in the baseline but
// absent from the sweep must be a violation, not a vacuous pass.
func TestCompareBaselineMissingProfile(t *testing.T) {
	base := &Report{Schema: Schema, Scenarios: []Outcome{{
		Index: 0, Name: "s0", Identical: true,
		Profiles: []ProfileRun{{Profile: "p", Speedup: 1.2}, {Profile: "q", Speedup: 1.1}},
	}}}
	base.Summary = summarize(base.Scenarios)
	cur := &Report{Schema: Schema, Scenarios: []Outcome{{
		Index: 0, Name: "s0", Identical: true,
		Profiles: []ProfileRun{{Profile: "p", Speedup: 1.2}},
	}}}
	cur.Summary = summarize(cur.Scenarios)
	v := CompareBaseline(cur, base, 0.01)
	if len(v) == 0 {
		t.Fatal("dropping profile q from the sweep passed the baseline gate")
	}
	if !strings.Contains(v[0], "q") {
		t.Errorf("violation does not name the missing profile: %v", v)
	}
	// A profile newly added to the sweep (absent from the baseline) is fine.
	if v := CompareBaseline(base, cur, 0.01); len(v) != 0 {
		t.Errorf("newly added profile flagged: %v", v)
	}
}

// TestVerifiedSweep: a verify-enabled tuned sweep statically verifies every
// variant it measured (fixed, each tuner candidate, and each chosen plan)
// with zero findings, and a second sweep over the same on-disk store skips
// every re-verification via the durable ledger.
func TestVerifiedSweep(t *testing.T) {
	dir := t.TempDir()
	corpus := smallCorpus(t, 4)
	sweep := func() *Report {
		t.Helper()
		store, err := exec.NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := session.New(session.Options{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(Config{Scenarios: corpus, Tune: true, Verify: true, Session: sess})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Summary.Errors != 0 || rep.Summary.Correct != len(corpus) {
			t.Fatalf("sweep failed:\n%s", rep.Table())
		}
		return rep
	}

	cold := sweep()
	if cold.Summary.VerifiedVariants == 0 {
		t.Fatal("verify-enabled sweep verified nothing")
	}
	if cold.Summary.VerifyFailures != 0 {
		t.Fatalf("static verifier flagged %d findings on a clean sweep", cold.Summary.VerifyFailures)
	}
	if cold.Summary.VerifyWallNs <= 0 {
		t.Error("verify wall time not recorded")
	}
	for _, o := range cold.Scenarios {
		if len(o.VerifyFailures) != 0 {
			t.Errorf("%s: unexpected verify failures: %v", o.Name, o.VerifyFailures)
		}
	}

	warm := sweep()
	if warm.Summary.VerifiedVariants != 0 {
		t.Errorf("warm sweep re-verified %d variants, want 0 (ledger must carry verdicts)",
			warm.Summary.VerifiedVariants)
	}
	if warm.Summary.VerifySkipped < cold.Summary.VerifiedVariants {
		t.Errorf("warm sweep skipped %d verifications, want ≥ %d (every cold verification)",
			warm.Summary.VerifySkipped, cold.Summary.VerifiedVariants)
	}
}

// TestVerifyOffLeavesReportUntouched: with Verify unset, none of the verify
// counters appear in the serialized report — the committed benchmark JSON
// must stay byte-identical.
func TestVerifyOffLeavesReportUntouched(t *testing.T) {
	rep, err := Run(Config{Scenarios: smallCorpus(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"verified_variants", "verify_skipped", "verify_failures", "verify_wall_ns"} {
		if strings.Contains(string(b), field) {
			t.Errorf("verify-off report serializes %q", field)
		}
	}
}
