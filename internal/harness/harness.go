// Package harness runs the differential conformance-and-evaluation sweep:
// for every scenario in a corpus it parses the Fortran kernel, executes the
// untransformed program on the simulated cluster, applies the pre-push
// transformation, executes the transformed program identically, asserts
// bit-identical observable results (the correctness oracle of the paper's
// §4 protocol), and reports simulated makespans under each machine model.
// The sweep is the repository's regression gate: a transformation change
// that corrupts results or loses the overlap gain fails it.
//
// A sweep runs in one session.Session (the caller's, or a private default
// one): its engine runs every measurement, its store holds every compiled
// variant, and in tuned mode every (scenario, machine) search goes through
// session.Session.Tune, so a search the session's plan memo already answered
// is not run again. Measurements replay a variant's skeleton wherever it
// certifies (exec.Runner.Measure); wave 1 runs machine-major, so each
// scenario's first machine records its original and fixed variant before the
// other machines replay them. Tiered tuning is the harness's own step once
// every machine has chosen, memo hits included: the original and the adopted
// plan are re-proved on the check engine and must reproduce what the search
// ranked on. The check measures through exec.Runner.Measure on the check
// engine and the session's store, so the variants keep the check engine's
// skeletons beside the sweep engine's: the first check of a source executes
// and records it, and every later check — another machine's, or a later
// sweep's in the same session — replays that recording where it certifies
// and executes otherwise. Each scenario's machines settle in sweep order, so
// the first machine that checks a source is the one that executes it. Before
// its check, a tuned row's fixed row must carry the search's own makespans
// of the original and the fixed-K variant, so what the check re-proves
// covers the fixed row as well.
package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/session"
	"repro/internal/tune"
	"repro/internal/workload"
)

// Schema identifies the JSON artifact layout. v7 adds the bytecode
// execution tier and tiered tuning: the report records the tune-check
// engine (`tune_check_engine`, the oracle that differentially re-checked
// every adopted plan), tuned rows carry `tiered_checks` (oracle checks on
// that row, paid as `walk_runs` executions and `walk_replays` replays), and
// the summary sums them. v6 made "don't transform" a
// first-class per-site decision (skip decisions, skipped_sites /
// identity_plans counters; tuned speedup ≥ 1.0 by construction); v5 added
// the execution-engine fields (engine, variants_compiled, cache_hits,
// sweep_wall_ns) on top of the v4 per-site tuning fields.
const Schema = "repro/bench-harness/v7"

// Config parameterizes one sweep.
type Config struct {
	// Scenarios is the corpus; empty means the full generated default
	// corpus (workload.GenerateScenarios with seed 0).
	Scenarios []workload.Scenario
	// Machines are the machine models to measure under; empty means the
	// default sweep set (plan.DefaultSweep): the paper's pair —
	// mpich-tcp-2005 (host progress) and mpich-gm-2005 (NIC offload) —
	// plus the modern hpc-rdma-2019 stack. A scenario's Costs override
	// applies on top of each machine's CPU cost model.
	Machines []plan.Machine
	// Parallelism bounds the sweep scheduler's concurrent workers; <= 0
	// means GOMAXPROCS. Work items are (scenario, machine) pairs; results
	// are collected by index, so reports are deterministic regardless of
	// the value.
	Parallelism int
	// Tune enables the per-(scenario, machine) plan search: next to the
	// fixed-K measurement, internal/tune picks the whole plan decision —
	// K, wait schedule, send order, interchange gate — and the outcome
	// records the chosen plan, the tuned speedup, and the search cost.
	// Searches go through the session's plan memo (session.Session.Tune).
	Tune bool
	// TuneCheckEngine, when non-empty, makes tuning tiered: candidates are
	// measured on the sweep engine, and the original program and each
	// adopted plan — memo hits included — are re-proved on this engine (the
	// walk oracle in CI), requiring identical makespans and observables. Each
	// source is executed once, by its first check, and replayed by the others
	// where its recording certifies. Ignored when it names the sweep engine
	// itself.
	TuneCheckEngine exec.Engine
	// Verify enables the static verification tier: every (program, plan)
	// variant the sweep touches — the fixed variant, every measured tuner
	// candidate, and each chosen plan — is re-proven by the translation
	// validator and MPI schedule linter (internal/verify), no execution
	// involved. Verified variant hashes are recorded on the session store's
	// ledger (when it keeps one), so repeat sweeps — and warm processes
	// sharing an on-disk store — skip re-verification entirely. Findings
	// land in each scenario's verify_failures and the summary counters;
	// they do not mark the scenario errored (the dynamic oracle verdict
	// stays independent).
	Verify bool
	// Session supplies the execution engine, variant store and plan memo
	// the sweep runs through — two sweeps sharing a session share compiled
	// variants and, in tuned mode, memoized plans. Nil gives each Run a
	// private default session (bytecode engine, fresh in-memory store,
	// empty memo), so concurrent sweeps in one process never share
	// counters. The walk oracle sweeps through a session built with
	// session.Options{Engine: exec.EngineWalk}.
	Session *session.Session
}

// ProfileRun is one (scenario, machine) differential measurement.
type ProfileRun struct {
	Profile    string  `json:"profile"`
	Offload    bool    `json:"offload"`
	OriginalNs int64   `json:"original_ns"` // untransformed makespan
	PrepushNs  int64   `json:"prepush_ns"`  // transformed makespan
	Speedup    float64 `json:"speedup"`     // original / prepush

	// Blocked time is the overlap story: pre-pushing converts per-rank
	// blocked (waiting) time into overlapped computation.
	OriginalBlockedNs int64 `json:"original_blocked_ns"` // avg per rank
	PrepushBlockedNs  int64 `json:"prepush_blocked_ns"`  // avg per rank

	OriginalMessages int64 `json:"original_messages"`
	PrepushMessages  int64 `json:"prepush_messages"`
	OriginalBytes    int64 `json:"original_bytes"`
	PrepushBytes     int64 `json:"prepush_bytes"`
}

// Outcome is one scenario's full differential result.
type Outcome struct {
	Index     int    `json:"index"` // position in the full corpus
	Name      string `json:"name"`
	Family    string `json:"family"`
	NP        int    `json:"np"`
	K         int64  `json:"k"`
	Seed      int64  `json:"seed"`
	PairBytes int64  `json:"pair_bytes"`
	Regime    string `json:"regime"` // eager | rendezvous

	// Plan is the uniform decision the fixed measurement replayed (the
	// scenario's K, every other knob at its default).
	Plan plan.Decision `json:"plan"`

	TransformedSites int  `json:"transformed_sites"`
	Interchanged     bool `json:"interchanged"`

	// Identical is the correctness oracle verdict: bit-identical printed
	// output and observable arrays under every machine.
	Identical bool   `json:"identical"`
	Mismatch  string `json:"mismatch,omitempty"`
	Err       string `json:"error,omitempty"`

	Profiles []ProfileRun `json:"profiles"`

	// Tuned holds the per-machine plan-search results (tuned mode only):
	// the chosen plan decision, tuned speedup, and search cost.
	Tuned []TunedRun `json:"tuned,omitempty"`

	// VerifyFailures holds the static verifier's findings against this
	// scenario's variants (verify mode only; empty means every variant
	// re-proved clean). One line per diagnostic, machine-readable code
	// first.
	VerifyFailures []string `json:"verify_failures,omitempty"`
}

// TunedRun is one (scenario, machine) plan-search result. Every candidate
// the search measured passed the same bit-identical oracle as the fixed-K
// run; the chosen plan is always at least as fast as the fixed K *and* as
// the original program (the identity plan — every site skipped — is always
// in the candidate set, so TunedSpeedup ≥ 1.0 by construction).
type TunedRun struct {
	Profile string `json:"profile"`
	Offload bool   `json:"offload"`
	// Plan is the first site's chosen decision — the whole plan for the
	// single-site kernels that dominate the corpus; Sites carries every
	// site's decision for multi-site programs.
	Plan         plan.Decision `json:"plan"`
	ChosenK      int64         `json:"chosen_k"`
	TunedSpeedup float64       `json:"tuned_speedup"`
	TunedNs      int64         `json:"tuned_prepush_ns"`
	FixedSpeedup float64       `json:"fixed_speedup"`
	// Sites are the per-site decisions and per-site analytic seeds of the
	// chosen plan, in program order.
	Sites []TunedSite `json:"sites,omitempty"`
	// Divergent marks a chosen plan whose sites do not all share one
	// decision; UniformSpeedup is the best measured speedup any uniform
	// plan achieved — the baseline a divergent plan had to beat.
	Divergent      bool    `json:"divergent,omitempty"`
	UniformSpeedup float64 `json:"best_uniform_speedup,omitempty"`
	// Search cost: measured pre-push runs and the simulated time they took.
	Evaluations int   `json:"evaluations"`
	SearchSimNs int64 `json:"search_sim_ns"`
	// TieredChecks counts the checks that re-proved this row's original and
	// adopted plan on the check engine (tiered tuning only; 0 when off): one
	// for the original, plus one when the winner's source is not the
	// original's. WalkRuns and WalkReplays say how they were paid: executions
	// on the check engine, and replays under this row's machine of a
	// certifying skeleton that one such execution recorded. Each scenario's
	// source is executed by its first check in the session — the original's
	// under the sweep's first machine, a winner's under the first machine that
	// adopted it — and the execution is counted on that machine's row.
	TieredChecks int `json:"tiered_checks,omitempty"`
	WalkRuns     int `json:"walk_runs,omitempty"`
	WalkReplays  int `json:"walk_replays,omitempty"`
	// ReplayedRuns is tune.Choice's: the search's skeleton replays; which
	// search came first decides — economics.
	ReplayedRuns int `json:"replayed_runs,omitempty"`
}

// TunedSite is one site's slice of a tuned plan: the chosen decision plus
// the analytic tile sizes the machine model seeded the site's search with.
type TunedSite struct {
	Site     string        `json:"site"`
	Decision plan.Decision `json:"decision"`
	SeedKs   []int64       `json:"seed_ks,omitempty"`
}

// skipCounts returns (skipped sites, total sites) of the chosen plan.
// Single-site rows that predate per-site entries fall back to the headline
// decision.
func (tr *TunedRun) skipCounts() (skips, sites int) {
	if len(tr.Sites) == 0 {
		if tr.Plan.Normalize().Skip {
			return 1, 1
		}
		return 0, 1
	}
	for _, ts := range tr.Sites {
		if ts.Decision.Normalize().Skip {
			skips++
		}
	}
	return skips, len(tr.Sites)
}

// Summary aggregates a sweep.
type Summary struct {
	Scenarios int `json:"scenarios"`
	Correct   int `json:"correct"` // scenarios passing the oracle
	Errors    int `json:"errors"`
	// GeomeanSpeedup maps machine name → geometric-mean original/prepush
	// makespan ratio over clean scenarios (error-free AND oracle-passing).
	GeomeanSpeedup map[string]float64 `json:"geomean_speedup"`
	// PerProfile carries the per-machine aggregates with the facts gates
	// need (the offload flag, tuned geomeans, pathology counters), sorted
	// by machine name.
	PerProfile []ProfileSummary `json:"per_profile"`
	// NonPositive counts (scenario, machine) measurements with a
	// non-positive speedup — a zero or negative makespan pathology. Such
	// entries are excluded from the geomeans but must fail the run: silently
	// dropping them would inflate the aggregate.
	NonPositive int `json:"non_positive_speedups"`
	// OffloadGained counts clean scenarios (once each) whose prepush run
	// is at least as fast as the original on some offload machine.
	OffloadGained int `json:"offload_gained"`
	// NonDefaultPlans counts tuned rows whose chosen plan differs from the
	// fixed decision in a non-K knob (wait schedule, send order, or
	// interchange gate) — the signal that the multi-knob search is finding
	// wins no tile size alone could.
	NonDefaultPlans int `json:"non_default_plans"`
	// DivergentPlans counts tuned rows whose chosen plan gives different
	// decisions to different MPI_ALLTOALL sites of one program — the signal
	// that the per-site search is finding wins no uniform plan can express.
	DivergentPlans int `json:"divergent_plans"`
	// SkippedSites counts per-site skip decisions across all tuned rows:
	// sites where the tuner concluded the paper's transformation should not
	// fire at all.
	SkippedSites int `json:"skipped_sites"`
	// IdentityPlans counts tuned rows whose chosen plan skips every site —
	// the whole program is best left untransformed on that machine. These
	// rows pin the tuned speedup at exactly 1.0 (the never-lose floor).
	IdentityPlans int `json:"identity_plans"`
	// VariantsCompiled and CacheHits are this sweep's traffic against the
	// session's compiled-variant store, which every engine's measurements
	// draw from: variants new to the store vs. lookups served by an
	// already-compiled in-memory artifact. Merge sums them across shards.
	VariantsCompiled int64 `json:"variants_compiled"`
	CacheHits        int64 `json:"cache_hits"`
	// DiskHits counts lookups served from a persistent store's
	// checksum-valid on-disk entries (variants known from an earlier
	// process; re-lowered in memory but not new knowledge). Zero unless
	// the sweep session wraps an on-disk store.
	DiskHits int64 `json:"disk_hits,omitempty"`
	// SweepWallNs is the scheduler's wall-clock cost for this sweep (the
	// quantity the engine exists to shrink); merge sums shard walls.
	SweepWallNs int64 `json:"sweep_wall_ns"`
	// Static verification counters (verify mode only; omitted otherwise so
	// pre-verify artifacts stay byte-identical). VerifiedVariants counts
	// variants freshly re-proven this sweep; VerifySkipped counts variants
	// whose hash the store ledger already knew clean (a warm sweep re-
	// verifies nothing); VerifyFailures counts diagnostics across all
	// variants; VerifyWallNs is the verifier's wall-clock cost. Merge sums
	// all four.
	VerifiedVariants int64 `json:"verified_variants,omitempty"`
	VerifySkipped    int64 `json:"verify_skipped,omitempty"`
	VerifyFailures   int64 `json:"verify_failures,omitempty"`
	VerifyWallNs     int64 `json:"verify_wall_ns,omitempty"`
	// TieredChecks sums the tuned rows' checks (tiered tuning only): at most
	// two per adopted plan instead of one execution per measured candidate.
	// WalkRuns and WalkReplays sum what paid for them — check-engine
	// executions (one per original and per distinct winner source the
	// session had not checked before, plus one per machine where a skeleton
	// does not certify), and replays. Merge sums all three.
	TieredChecks int64 `json:"tiered_checks,omitempty"`
	WalkRuns     int64 `json:"walk_runs,omitempty"`
	WalkReplays  int64 `json:"walk_replays,omitempty"`
	// ReplayedRuns sums the tuned rows' counters; Merge sums it across
	// shards.
	ReplayedRuns int64 `json:"replayed_runs,omitempty"`
}

// ProfileSummary is one machine's aggregate row.
type ProfileSummary struct {
	Profile string `json:"profile"`
	// Offload is taken from the measured machine runs, so gates can key on
	// the stack's capability instead of hard-coding machine names.
	Offload bool    `json:"offload"`
	Geomean float64 `json:"geomean_speedup"`
	// TunedGeomean is the geometric-mean tuned speedup (tuned mode only).
	TunedGeomean float64 `json:"tuned_geomean_speedup,omitempty"`
	// NonPositive counts this machine's non-positive speedup measurements.
	NonPositive int `json:"non_positive_speedups"`
	// OriginalBlockedFrac is the aggregate blocked share of the original
	// (untransformed) runs on this machine: the average per-rank blocked
	// time summed over clean scenarios, divided by the summed makespans.
	// It measures how much overlap the machine leaves on the table — the
	// raw material of the paper's transformation. Gates use it to tell
	// machines with reclaimable blocked time (where an offload stack must
	// show aggregate gain) from already-overlapped stacks like
	// hpc-rdma-2019, whose 100G wire drains the exchange faster than the
	// node computes (where only the no-harm and tuned-recovery bounds are
	// meaningful).
	OriginalBlockedFrac float64 `json:"original_blocked_frac"`
}

// Report is the sweep artifact (marshalled to BENCH_harness.json).
type Report struct {
	Schema string `json:"schema"`
	// Engine names the execution engine the sweep ran on ("bytecode" or
	// "walk"). Merge requires it to agree across shards:
	// mixing engines would make the summed wall/cache counters meaningless.
	Engine string `json:"engine,omitempty"`
	// TuneCheckEngine names the tiered-tuning check engine, when one re-
	// proved the adopted plans. Merge requires it to agree across shards
	// for the same reason as Engine: a summed tiered_checks counter over
	// shards whose plans were checked against different oracles (or not at
	// all) would misstate what the artifact proves.
	TuneCheckEngine string `json:"tune_check_engine,omitempty"`
	// Machines names the machine-model set the sweep ran under, in sweep
	// order. Merge requires it to agree across shards — an outcome-level
	// scan alone can miss a mismatch when a shard's scenarios all errored.
	Machines []string `json:"machines,omitempty"`
	// Verify records that the sweep ran the static verification tier.
	// Merge requires it to agree across shards: summing verify counters
	// over a mix of verify-on and verify-off shards would undercount the
	// corpus (a clean-looking merged artifact whose unverified half was
	// simply never checked). Omitted on verify-off reports so pre-verify
	// artifacts stay byte-identical.
	Verify    bool      `json:"verify,omitempty"`
	Scenarios []Outcome `json:"scenarios"`
	Summary   Summary   `json:"summary"`
}

// Run executes the sweep on the scheduler: work items are (scenario,
// machine) pairs drained by a worker pool — the fixed differential wave
// first, then (in tuned mode) the plan-search wave over the scenarios that
// passed the oracle. Results land in per-index slots, so the report is
// deterministic regardless of parallelism. The returned error covers only
// configuration problems; per-scenario failures are recorded in their
// Outcome (and in Summary) so one broken scenario cannot hide the rest of
// the corpus.
func Run(cfg Config) (*Report, error) {
	scenarios := cfg.Scenarios
	if len(scenarios) == 0 {
		scenarios = workload.GenerateScenarios(workload.GenOptions{})
	}
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("harness: empty corpus")
	}
	machines := cfg.Machines
	if len(machines) == 0 {
		machines = plan.DefaultSweep()
	}
	sess := cfg.Session
	if sess == nil {
		var err error
		if sess, err = session.New(session.Options{}); err != nil {
			return nil, fmt.Errorf("harness: %v", err)
		}
	}
	engine := sess.Engine()
	// Tiered tuning: resolve the check engine up front so a typo fails the
	// sweep before any work; a check engine naming the sweep engine itself
	// is a no-op (nothing to cross-check).
	var check *exec.Runner
	if cfg.Tune && cfg.TuneCheckEngine != "" {
		ce, err := exec.ParseEngine(string(cfg.TuneCheckEngine))
		if err != nil {
			return nil, fmt.Errorf("harness: tune check engine: %v", err)
		}
		if ce != engine {
			check = &exec.Runner{Engine: ce, Store: sess.Store()}
		}
	}
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	wallStart := time.Now()
	storeBefore := sess.Store().Stats()

	var vt *verifyTracker
	if cfg.Verify {
		vt = newVerifyTracker(sess)
	}

	states := make([]*scenarioState, len(scenarios))
	for i, sc := range scenarios {
		states[i] = newScenarioState(sc, machines, sess, check, vt)
	}

	ns := len(states)
	// Wave 1: fixed differential measurements, one item per
	// scenario×machine, machine-major: every scenario's first machine
	// records its original and fixed variant before any other machine
	// measures them, which then replay. The first worker to touch a scenario
	// prepares it (analyze + fixed-plan apply) under a sync.Once.
	runTasks(par, ns*len(machines), func(ti int) {
		st := states[ti%ns]
		st.prepare()
		st.runMachine(ti / ns)
	})
	if cfg.Tune {
		// Wave 2: the tuned plan search, machine-major again, skipping
		// scenarios that errored or failed the oracle (their fixed rows
		// already tell the story). Wave 3 settles each adopted plan once
		// every machine's is known — the tiered check, then static
		// verification — one scenario per item, its machines in sweep
		// order, so the machine whose check executes a source is the same
		// whatever the parallelism.
		runTasks(par, ns*len(machines), func(ti int) {
			states[ti%ns].tuneMachine(ti / ns)
		})
		runTasks(par, ns, func(si int) {
			for mi := range machines {
				states[si].settle(mi)
			}
		})
	}

	outcomes := make([]Outcome, len(states))
	for i, st := range states {
		outcomes[i] = st.assemble(cfg.Tune)
	}

	rep := &Report{Schema: Schema, Engine: string(engine), Verify: cfg.Verify, Scenarios: outcomes}
	if check != nil {
		rep.TuneCheckEngine = string(check.Engine)
	}
	for _, m := range machines {
		rep.Machines = append(rep.Machines, m.Name)
	}
	rep.Summary = summarize(outcomes)
	delta := sess.Store().Stats().Sub(storeBefore)
	rep.Summary.VariantsCompiled = delta.Compiled
	rep.Summary.CacheHits = delta.Hits
	rep.Summary.DiskHits = delta.DiskHits
	rep.Summary.SweepWallNs = time.Since(wallStart).Nanoseconds()
	if vt != nil {
		rep.Summary.VerifiedVariants, rep.Summary.VerifySkipped,
			rep.Summary.VerifyFailures, rep.Summary.VerifyWallNs = vt.counts()
	}
	return rep, nil
}

// runTasks drains n work items through a pool of par workers.
func runTasks(par, n int, fn func(i int)) {
	if par > n {
		par = n
	}
	if par < 1 {
		par = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// machinesFor overlays the scenario's cost-model override (if any) onto the
// sweep's machine models.
func machinesFor(sc workload.Scenario, machines []plan.Machine) []plan.Machine {
	if sc.Costs == nil {
		return machines
	}
	out := make([]plan.Machine, len(machines))
	for i, m := range machines {
		m.Costs = *sc.Costs
		out[i] = m
	}
	return out
}

// scenarioState carries one scenario through the scheduler: shared
// preparation (analysis, the fixed-plan variant) plus per-machine result
// slots filled concurrently and assembled deterministically.
type scenarioState struct {
	sc       workload.Scenario
	machines []plan.Machine
	arrays   []string
	sess     *session.Session
	runner   exec.Runner
	// check, when non-nil, is the tiered-tuning check runner; wave 1 then
	// keeps what the check compares of each machine's original run in orig.
	check *exec.Runner
	orig  []*interp.Result
	// verify, when non-nil, is the sweep-wide static verification tracker;
	// verifyFixed holds the fixed variant's findings, verifyTuned the
	// per-machine tuned-search findings.
	verify      *verifyTracker
	verifyFixed []string
	verifyTuned [][]string

	fixedPlan *plan.Plan

	prepOnce         sync.Once
	prog             *core.Program
	transformed      string
	transformedSites int
	interchanged     bool
	prepErr          string

	// Per-machine slots (indexed like machines).
	profiles []ProfileRun
	runErr   []string
	mismatch []string
	choices  []tune.Choice
	tuned    []*TunedRun
	tuneErr  []string
}

func newScenarioState(sc workload.Scenario, machines []plan.Machine, sess *session.Session, check *exec.Runner, vt *verifyTracker) *scenarioState {
	// The oracle compares all printed output plus the receive array every
	// corpus kernel exposes; the send array is excluded because the indirect
	// transformation legally makes it dead (§3.4). A scenario naming its own
	// observable arrays (multi-site kernels have one receive array per
	// exchange) overrides that.
	arrays := []string{"ar"}
	if len(sc.Arrays) > 0 {
		arrays = sc.Arrays
	}
	st := &scenarioState{
		sc:          sc,
		machines:    machinesFor(sc, machines),
		arrays:      arrays,
		sess:        sess,
		runner:      sess.Runner(),
		check:       check,
		verify:      vt,
		verifyTuned: make([][]string, len(machines)),
		fixedPlan:   plan.Uniform(plan.Decision{K: sc.K}),
		profiles:    make([]ProfileRun, len(machines)),
		runErr:      make([]string, len(machines)),
		mismatch:    make([]string, len(machines)),
		choices:     make([]tune.Choice, len(machines)),
		tuned:       make([]*TunedRun, len(machines)),
		tuneErr:     make([]string, len(machines)),
	}
	if check != nil {
		st.orig = make([]*interp.Result, len(machines))
	}
	return st
}

// prepare analyzes the scenario and applies the fixed plan, once. The
// analysis goes through the session so a shared session reuses programs
// (and their plan-key Apply memos) across sweeps.
func (st *scenarioState) prepare() {
	st.prepOnce.Do(func() {
		prog, err := st.sess.Analyze(st.sc.Source, 0)
		if err != nil {
			st.prepErr = fmt.Sprintf("analyze: %v", err)
			return
		}
		transformed, rep, err := core.Apply(prog, st.fixedPlan)
		if err != nil {
			st.prepErr = fmt.Sprintf("apply: %v", err)
			return
		}
		if rep.TransformedCount() == 0 {
			st.prepErr = fmt.Sprintf("transform did not fire: %s", rep.FirstRejection())
			return
		}
		st.prog = prog
		st.transformed = transformed
		st.transformedSites = rep.TransformedCount()
		st.interchanged = rep.AnyInterchanged()
		if st.verify != nil {
			st.verifyFixed = st.verify.variant(prog, st.fixedPlan)
		}
	})
}

// runMachine executes the fixed differential measurement for one machine.
func (st *scenarioState) runMachine(mi int) {
	if st.prepErr != "" {
		return
	}
	m := st.machines[mi]
	var results [2]*interp.Result
	var times [2]netsim.Time
	var blocked [2]netsim.Time
	var msgs, bytes [2]int64
	for vi, text := range []string{st.sc.Source, st.transformed} {
		res, _, err := st.runner.Measure(text, st.sc.NP, m.Costs, m.Profile)
		if err != nil {
			st.runErr[mi] = fmt.Sprintf("run %s variant %d: %v", m.Name, vi, err)
			return
		}
		results[vi] = res
		times[vi] = res.Elapsed()
		_, b := res.AvgRankTimes()
		blocked[vi] = b
		msgs[vi] = res.Stats.Messages
		bytes[vi] = res.Stats.Bytes
	}
	pr := ProfileRun{
		Profile: m.Name, Offload: m.Profile.Offload,
		OriginalNs: int64(times[0]), PrepushNs: int64(times[1]),
		OriginalBlockedNs: int64(blocked[0]), PrepushBlockedNs: int64(blocked[1]),
		OriginalMessages: msgs[0], PrepushMessages: msgs[1],
		OriginalBytes: bytes[0], PrepushBytes: bytes[1],
	}
	if times[1] > 0 {
		pr.Speedup = float64(times[0]) / float64(times[1])
	}
	st.profiles[mi] = pr
	if st.orig != nil {
		st.orig[mi] = observed(results[0], st.arrays)
	}
	if same, why := interp.SameObservable(results[0], results[1], st.arrays...); !same {
		st.mismatch[mi] = fmt.Sprintf("%s: %s", m.Name, why)
	}
}

// observed keeps of a run what SameObservable compares — the output and the
// named arrays, digested — so that wave 1's originals wait for the tiered
// check without holding every rank's arrays.
func observed(res *interp.Result, arrays []string) *interp.Result {
	out := &interp.Result{Output: res.Output, Arrays: make([]map[string]interface{}, len(res.Arrays))}
	for r, all := range res.Arrays {
		out.Arrays[r] = map[string]interface{}{}
		for _, name := range arrays {
			if data, ok := all[name]; ok {
				out.Arrays[r][name] = interp.Digest(data)
			}
		}
	}
	return out
}

// clean reports whether the scenario prepared, ran, and passed the oracle
// on every machine — the precondition for tuning it.
func (st *scenarioState) clean() bool {
	if st.prepErr != "" {
		return false
	}
	for mi := range st.machines {
		if st.runErr[mi] != "" || st.mismatch[mi] != "" {
			return false
		}
	}
	return true
}

// tuneMachine runs the plan search for one machine (wave 2) through the
// session's plan memo.
func (st *scenarioState) tuneMachine(mi int) {
	if !st.clean() {
		return
	}
	res, err := st.sess.Tune(st.prog, st.machines[mi], tune.Params{NP: st.sc.NP, FixedK: st.sc.K, Arrays: st.arrays})
	if err != nil {
		st.tuneErr[mi] = fmt.Sprintf("tune: %v", err)
		return
	}
	c := res.Choice
	tr := &TunedRun{
		Profile: c.Machine, Offload: c.Offload,
		Plan: c.Chosen, ChosenK: c.Chosen.K,
		TunedSpeedup: c.Speedup, TunedNs: c.PrepushNs,
		FixedSpeedup: c.FixedSpeedup,
		Divergent:    c.Divergent, UniformSpeedup: c.UniformSpeedup,
		Evaluations: c.Evaluations, SearchSimNs: c.SearchSimNs,
		ReplayedRuns: c.ReplayedRuns,
	}
	for _, s := range c.Sites {
		tr.Sites = append(tr.Sites, TunedSite{
			Site: s.Site, Decision: s.Decision, SeedKs: s.SeedKs,
		})
	}
	st.choices[mi], st.tuned[mi] = c, tr
}

// settle finishes machine mi's adopted plan (wave 3): wave 1's fixed row
// must agree with the search, then the tiered check runs when one is
// configured — either failure drops the row — then static verification.
func (st *scenarioState) settle(mi int) {
	tr := st.tuned[mi]
	if tr == nil {
		return
	}
	c := st.choices[mi]
	if err := st.fixedRowAgrees(mi, c); err != nil {
		st.tuneErr[mi] = fmt.Sprintf("tune: fixed row: %v", err)
		st.tuned[mi] = nil
		return
	}
	if st.check != nil {
		if err := st.tieredCheck(mi, c, tr); err != nil {
			st.tuneErr[mi] = fmt.Sprintf("tune: tiered check: %v", err)
			st.tuned[mi] = nil
			return
		}
	}
	if st.verify != nil {
		st.verifyTuned[mi] = st.verify.choice(st.prog, c)
	}
}

// fixedRowAgrees requires wave 1's fixed row under machine mi to carry the
// makespans the search measured for the same two sources: the original's,
// and the fixed-K variant's (the search's uniform candidate at the fixed K).
// Wave 1's first machine executes both sources while later measurements
// replay them, so this holds the executions to the replays at no cost, and
// the tiered check, which re-proves what the search measured, then covers
// the fixed row too.
func (st *scenarioState) fixedRowAgrees(mi int, c tune.Choice) error {
	m, pr := st.machines[mi], st.profiles[mi]
	if pr.OriginalNs != c.OriginalNs {
		return fmt.Errorf("original makespan %d ns in the fixed row vs %d ns in the search under %s",
			pr.OriginalNs, c.OriginalNs, m.Name)
	}
	fixed := plan.Decision{K: c.FixedK}.Normalize()
	for _, cand := range c.Candidates {
		if cand.Uniform && len(cand.Decisions) > 0 && cand.Decisions[0] == fixed {
			if cand.PrepushNs != pr.PrepushNs {
				return fmt.Errorf("fixed K=%d makespan %d ns in the fixed row vs %d ns in the search under %s",
					c.FixedK, pr.PrepushNs, cand.PrepushNs, m.Name)
			}
			return nil
		}
	}
	return fmt.Errorf("the search under %s measured no fixed K=%d variant; the fixed row has %d ns",
		m.Name, c.FixedK, pr.PrepushNs)
}

// tieredCheck re-proves the original and the adopted plan of c on the check
// engine and requires exact agreement with what the search ranked on: the
// original's makespan, and its observables against wave 1's run on the
// sweep engine (as kept by observed); the winner's makespan, and its
// observables against the checked original. It fills tr's check counters.
func (st *scenarioState) tieredCheck(mi int, c tune.Choice, tr *TunedRun) error {
	m := st.machines[mi]
	co, how, err := st.checkMeasure(mi, "original", st.sc.Source, c.OriginalNs, tr)
	if err != nil {
		return err
	}
	if same, why := interp.SameObservable(st.orig[mi], co, st.arrays...); !same {
		return fmt.Errorf("original observables diverge between %q and %q under %s: %s",
			st.runner.Engine, how, m.Name, why)
	}
	// core.Apply is memoized by plan key: re-materializing a winner's source
	// is free.
	winnerSrc, _, err := core.Apply(st.prog, c.Plan)
	if err != nil {
		return fmt.Errorf("re-apply winner under %s: %w", m.Name, err)
	}
	if winnerSrc == st.sc.Source {
		return nil
	}
	cw, how, err := st.checkMeasure(mi, "winner", winnerSrc, c.PrepushNs, tr)
	if err != nil {
		return err
	}
	if same, why := interp.SameObservable(co, cw, st.arrays...); !same {
		return fmt.Errorf("winner corrupts observables on %q under %s: %s", how, m.Name, why)
	}
	return nil
}

// checkMeasure measures src on the check engine under machine mi, requires
// the makespan the search ranked on, and books the check on tr as a replay
// or a check-engine execution. how names the engine, and says when its
// answer was a replay.
func (st *scenarioState) checkMeasure(mi int, what, src string, wantNs int64, tr *TunedRun) (res *interp.Result, how exec.Engine, err error) {
	m := st.machines[mi]
	res, replayed, err := st.check.Measure(src, st.sc.NP, m.Costs, m.Profile)
	if err != nil {
		return nil, "", fmt.Errorf("%s under %s on %q: %w", what, m.Name, st.check.Engine, err)
	}
	how = st.check.Engine
	if replayed {
		how += " (replayed)"
	}
	if ns := int64(res.Elapsed()); ns != wantNs {
		return nil, "", fmt.Errorf("%s makespan %d ns on %q vs %d ns on %q under %s",
			what, ns, how, wantNs, st.runner.Engine, m.Name)
	}
	tr.TieredChecks++
	if replayed {
		tr.WalkReplays++
	} else {
		tr.WalkRuns++
	}
	return res, how, nil
}

// assemble folds the slots into the scenario's Outcome, deterministically:
// machine rows in sweep order, the first error (in machine order) winning.
func (st *scenarioState) assemble(tunedMode bool) Outcome {
	out := Outcome{
		Index: st.sc.Index, Name: st.sc.Name, Family: st.sc.Family, NP: st.sc.NP,
		K: st.sc.K, Seed: st.sc.Seed, PairBytes: st.sc.PairBytes, Regime: st.sc.Regime,
		Plan: st.fixedPlan.Default,
	}
	if st.prepErr != "" {
		out.Err = st.prepErr
		return out
	}
	for mi := range st.machines {
		if st.runErr[mi] != "" {
			out.Err = st.runErr[mi]
			return out
		}
	}
	out.TransformedSites = st.transformedSites
	out.Interchanged = st.interchanged
	out.Profiles = append(out.Profiles, st.profiles...)
	out.Identical = true
	for mi := range st.machines {
		if st.mismatch[mi] != "" {
			out.Identical = false
			out.Mismatch = st.mismatch[mi]
			break
		}
	}
	if tunedMode && out.Identical {
		for mi := range st.machines {
			if st.tuneErr[mi] != "" {
				// A failed search fails the scenario (matching the
				// historical single-call behavior): the fixed rows stay,
				// tuned rows are dropped.
				out.Err = st.tuneErr[mi]
				out.Tuned = nil
				return out
			}
			if st.tuned[mi] != nil {
				out.Tuned = append(out.Tuned, *st.tuned[mi])
			}
		}
	}
	if st.verify != nil {
		out.VerifyFailures = append(out.VerifyFailures, st.verifyFixed...)
		for mi := range st.machines {
			out.VerifyFailures = append(out.VerifyFailures, st.verifyTuned[mi]...)
		}
	}
	return out
}

// Merge folds sharded sweep reports into one, deterministically: outcomes
// are reordered by corpus index (ties by name), the summary is recomputed
// from the union, and inconsistent shards are rejected — overlapping
// corpus indices, foreign schemas, or shards swept under different
// machine sets, corpus seeds, or tune modes (any of which would make the
// recomputed aggregates silently meaningless).
func Merge(reports []*Report) (*Report, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("harness: nothing to merge")
	}
	var outcomes []Outcome
	machineSet := ""
	engine := ""
	checkEngine := ""
	verifyMode := false
	var compiled, hits, diskHits, wall int64
	var vVerified, vSkipped, vFails, vWall int64
	for i, r := range reports {
		if r.Schema != Schema {
			return nil, fmt.Errorf("harness: merge input %d has schema %q, want %q — regenerate the shard with this binary", i, r.Schema, Schema)
		}
		// The report-level machine list catches mismatches even when every
		// scenario of a shard errored (no outcome rows to compare).
		ms := strings.Join(r.Machines, ",")
		if i == 0 {
			machineSet = ms
			engine = r.Engine
			checkEngine = r.TuneCheckEngine
			verifyMode = r.Verify
		} else {
			if ms != machineSet {
				return nil, fmt.Errorf("harness: merge input %d was swept under machine set [%s], want [%s] — shards must use identical -machines", i, ms, machineSet)
			}
			if r.Engine != engine {
				return nil, fmt.Errorf("harness: merge input %d was swept under engine %q, want %q — shards must use one -engine", i, r.Engine, engine)
			}
			if r.TuneCheckEngine != checkEngine {
				return nil, fmt.Errorf("harness: merge input %d was tune-checked against engine %q, want %q — shards must use one -tune-check-engine", i, r.TuneCheckEngine, checkEngine)
			}
			if r.Verify != verifyMode {
				return nil, fmt.Errorf("harness: merge input %d mixes -verify and verify-off shards — summed verify counters would silently undercount the corpus; re-sweep every shard with one -verify setting", i)
			}
		}
		compiled += r.Summary.VariantsCompiled
		hits += r.Summary.CacheHits
		diskHits += r.Summary.DiskHits
		wall += r.Summary.SweepWallNs
		vVerified += r.Summary.VerifiedVariants
		vSkipped += r.Summary.VerifySkipped
		vFails += r.Summary.VerifyFailures
		vWall += r.Summary.VerifyWallNs
		outcomes = append(outcomes, r.Scenarios...)
	}
	sort.SliceStable(outcomes, func(i, j int) bool {
		if outcomes[i].Index != outcomes[j].Index {
			return outcomes[i].Index < outcomes[j].Index
		}
		return outcomes[i].Name < outcomes[j].Name
	})
	machines, seed, tuned := "", int64(-1), false
	for i := range outcomes {
		o := &outcomes[i]
		if i > 0 && o.Index == outcomes[i-1].Index {
			return nil, fmt.Errorf("harness: merge saw corpus index %d twice (%s and %s) — overlapping shards?",
				o.Index, outcomes[i-1].Name, o.Name)
		}
		if seed == -1 {
			seed = o.Seed
		} else if o.Seed != seed {
			return nil, fmt.Errorf("harness: merge mixes corpus seeds %d and %d (%s)", seed, o.Seed, o.Name)
		}
		if o.Err != "" {
			continue // an errored outcome carries no machine rows
		}
		var names []string
		for _, pr := range o.Profiles {
			names = append(names, pr.Profile)
		}
		ms := strings.Join(names, ",")
		if machines == "" {
			machines, tuned = ms, len(o.Tuned) > 0
			continue
		}
		if ms != machines {
			return nil, fmt.Errorf("harness: merge mixes machine sets [%s] and [%s] (%s)", machines, ms, o.Name)
		}
		if (len(o.Tuned) > 0) != tuned {
			return nil, fmt.Errorf("harness: merge mixes tuned and untuned shards (%s)", o.Name)
		}
	}
	rep := &Report{Schema: Schema, Engine: engine, TuneCheckEngine: checkEngine,
		Machines: reports[0].Machines, Verify: verifyMode, Scenarios: outcomes}
	rep.Summary = summarize(outcomes)
	rep.Summary.VariantsCompiled = compiled
	rep.Summary.CacheHits = hits
	rep.Summary.DiskHits = diskHits
	rep.Summary.SweepWallNs = wall
	rep.Summary.VerifiedVariants = vVerified
	rep.Summary.VerifySkipped = vSkipped
	rep.Summary.VerifyFailures = vFails
	rep.Summary.VerifyWallNs = vWall
	return rep, nil
}

// ErrSchema marks an artifact whose schema does not match this binary's —
// callers can errors.Is it to distinguish a stale artifact from a corrupt
// one and explain how to regenerate.
var ErrSchema = errors.New("artifact schema mismatch")

// ReadJSON loads a report artifact and checks its schema. A foreign schema
// returns an error wrapping ErrSchema rather than a zero-valued report, so
// a pre-v6 artifact can never be silently compared as zeros.
func ReadJSON(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q: %w", path, rep.Schema, Schema, ErrSchema)
	}
	return &rep, nil
}

// summarize folds outcomes into the aggregate verdicts.
func summarize(outcomes []Outcome) Summary {
	s := Summary{Scenarios: len(outcomes), GeomeanSpeedup: map[string]float64{}}
	type agg struct {
		offload             bool
		logSum, tunedLogSum float64
		cnt, tunedCnt       int
		nonPositive         int
		origNs, blockedNs   float64
	}
	aggs := map[string]*agg{}
	aggFor := func(name string, offload bool) *agg {
		a := aggs[name]
		if a == nil {
			a = &agg{offload: offload}
			aggs[name] = a
		}
		return a
	}
	for _, o := range outcomes {
		if o.Err != "" {
			s.Errors++
			continue
		}
		if !o.Identical {
			// A scenario that failed the oracle contributes nothing to the
			// performance aggregates: a transformation that corrupts
			// results must not inflate the reported overlap gain.
			continue
		}
		s.Correct++
		gained := false
		for _, pr := range o.Profiles {
			a := aggFor(pr.Profile, pr.Offload)
			a.origNs += float64(pr.OriginalNs)
			a.blockedNs += float64(pr.OriginalBlockedNs)
			if pr.Speedup > 0 {
				a.logSum += math.Log(pr.Speedup)
				a.cnt++
			} else {
				// A zero or negative speedup is a timing pathology. It is
				// excluded from the geomean, but counted and surfaced so it
				// fails the run instead of silently inflating the aggregate.
				a.nonPositive++
				s.NonPositive++
			}
			if pr.Offload && pr.Speedup >= 1.0 {
				gained = true
			}
		}
		for _, tr := range o.Tuned {
			a := aggFor(tr.Profile, tr.Offload)
			if tr.TunedSpeedup > 0 {
				a.tunedLogSum += math.Log(tr.TunedSpeedup)
				a.tunedCnt++
			} else {
				a.nonPositive++
				s.NonPositive++
			}
			if diffInNonKKnob(o.Plan, tr.Plan) {
				s.NonDefaultPlans++
			}
			if tr.Divergent {
				s.DivergentPlans++
			}
			skips, sites := tr.skipCounts()
			s.SkippedSites += skips
			if sites > 0 && skips == sites {
				s.IdentityPlans++
			}
			s.TieredChecks += int64(tr.TieredChecks)
			s.WalkRuns += int64(tr.WalkRuns)
			s.WalkReplays += int64(tr.WalkReplays)
			s.ReplayedRuns += int64(tr.ReplayedRuns)
		}
		if gained {
			s.OffloadGained++
		}
	}
	var names []string
	for name := range aggs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := aggs[name]
		ps := ProfileSummary{Profile: name, Offload: a.offload, NonPositive: a.nonPositive}
		if a.origNs > 0 {
			ps.OriginalBlockedFrac = a.blockedNs / a.origNs
		}
		if a.cnt > 0 {
			ps.Geomean = math.Exp(a.logSum / float64(a.cnt))
			s.GeomeanSpeedup[name] = ps.Geomean
		}
		if a.tunedCnt > 0 {
			ps.TunedGeomean = math.Exp(a.tunedLogSum / float64(a.tunedCnt))
		}
		s.PerProfile = append(s.PerProfile, ps)
	}
	return s
}

// diffInNonKKnob reports whether two decisions disagree beyond the tile
// size.
func diffInNonKKnob(a, b plan.Decision) bool {
	a, b = a.Normalize(), b.Normalize()
	return a.Wait != b.Wait || a.SendOrder != b.SendOrder ||
		a.Interchange != b.Interchange ||
		a.InterchangeMinBlockBytes != b.InterchangeMinBlockBytes
}

// WriteJSON writes the report artifact (pretty-printed, trailing newline).
func (r *Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Table renders the per-scenario results as an aligned text table, machines
// sorted as configured, scenarios in corpus order. In tuned mode two extra
// columns show the chosen plan and the tuned speedup.
func (r *Report) Table() string {
	tuned := false
	for _, o := range r.Scenarios {
		if len(o.Tuned) > 0 {
			tuned = true
			break
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s %-10s %6s %5s  %-14s %12s %12s %8s",
		"scenario", "regime", "np", "K", "machine", "original", "prepush", "speedup")
	if tuned {
		fmt.Fprintf(&sb, " %-20s %7s", "tuned plan", "tuned")
	}
	fmt.Fprintf(&sb, "  %s\n", "oracle")
	for _, o := range r.Scenarios {
		if o.Err != "" {
			fmt.Fprintf(&sb, "%-34s %-10s %6d %5d  ERROR: %s\n", o.Name, o.Regime, o.NP, o.K, o.Err)
			continue
		}
		verdict := "identical"
		if !o.Identical {
			verdict = "MISMATCH: " + o.Mismatch
		}
		for i, pr := range o.Profiles {
			name, regime := o.Name, o.Regime
			v := verdict
			if i > 0 {
				name, regime, v = "", "", ""
			}
			fmt.Fprintf(&sb, "%-34s %-10s %6d %5d  %-14s %12s %12s %8.2f",
				name, regime, o.NP, o.K, pr.Profile,
				netsim.Time(pr.OriginalNs), netsim.Time(pr.PrepushNs), pr.Speedup)
			if tuned {
				if tr := o.tunedFor(pr.Profile); tr != nil {
					fmt.Fprintf(&sb, " %-20s %7.2f", describeTuned(tr), tr.TunedSpeedup)
				} else {
					fmt.Fprintf(&sb, " %-20s %7s", "-", "-")
				}
			}
			fmt.Fprintf(&sb, "  %s\n", v)
		}
	}
	fmt.Fprintf(&sb, "\n%d scenarios, %d identical, %d errors\n",
		r.Summary.Scenarios, r.Summary.Correct, r.Summary.Errors)
	if r.Engine != "" {
		fmt.Fprintf(&sb, "engine %s: %d variant(s) compiled, %d cache hit(s)",
			r.Engine, r.Summary.VariantsCompiled, r.Summary.CacheHits)
		if r.Summary.DiskHits > 0 {
			fmt.Fprintf(&sb, ", %d disk hit(s)", r.Summary.DiskHits)
		}
		fmt.Fprintf(&sb, ", sweep wall %s\n", netsim.Time(r.Summary.SweepWallNs))
	}
	if r.Summary.NonPositive > 0 {
		fmt.Fprintf(&sb, "WARNING: %d non-positive speedup measurement(s) excluded from geomeans\n",
			r.Summary.NonPositive)
	}
	if r.Summary.NonDefaultPlans > 0 {
		fmt.Fprintf(&sb, "%d tuned plan(s) differ from the default in a non-K knob\n",
			r.Summary.NonDefaultPlans)
	}
	if r.Summary.DivergentPlans > 0 {
		fmt.Fprintf(&sb, "%d tuned plan(s) diverge across sites\n", r.Summary.DivergentPlans)
	}
	if r.Summary.SkippedSites > 0 {
		fmt.Fprintf(&sb, "%d site decision(s) skip the transformation (%d identity plan(s))\n",
			r.Summary.SkippedSites, r.Summary.IdentityPlans)
	}
	if r.TuneCheckEngine != "" {
		fmt.Fprintf(&sb, "tiered tuning: %d adopted-plan check(s) on engine %s: %d run(s), %d replay(s)\n",
			r.Summary.TieredChecks, r.TuneCheckEngine, r.Summary.WalkRuns, r.Summary.WalkReplays)
	}
	for _, ps := range r.Summary.PerProfile {
		fmt.Fprintf(&sb, "geomean speedup %-14s %.3f", ps.Profile, ps.Geomean)
		if ps.TunedGeomean > 0 {
			fmt.Fprintf(&sb, "   tuned %.3f", ps.TunedGeomean)
		}
		if ps.Offload {
			fmt.Fprintf(&sb, "   (offload)")
		}
		fmt.Fprintf(&sb, "\n")
	}
	return sb.String()
}

// describeTuned renders a tuned row's chosen plan: the single decision for
// uniform plans, the per-site decisions joined with "|" for divergent ones.
func describeTuned(tr *TunedRun) string {
	if !tr.Divergent || len(tr.Sites) == 0 {
		return describePlan(tr.Plan)
	}
	parts := make([]string, len(tr.Sites))
	for i, ts := range tr.Sites {
		parts[i] = describePlan(ts.Decision)
	}
	return strings.Join(parts, "|")
}

// describePlan renders a decision compactly for the table, e.g.
// "K=8", "K=8+per-tile+seq+int:off", or "K=skip" for a declined site (so a
// mixed multi-site plan reads "K=skip|K=64").
func describePlan(d plan.Decision) string {
	d = d.Normalize()
	if d.Skip {
		return "K=skip"
	}
	s := fmt.Sprintf("K=%d", d.K)
	if d.Wait == plan.WaitPerTile {
		s += "+per-tile"
	}
	if d.SendOrder == plan.SendSequential {
		s += "+seq"
	}
	switch d.Interchange {
	case plan.InterchangeOn:
		s += "+int:on"
	case plan.InterchangeOff:
		s += "+int:off"
	}
	return s
}

// tunedFor returns the tuned result for the named machine, or nil.
func (o *Outcome) tunedFor(profile string) *TunedRun {
	for i := range o.Tuned {
		if o.Tuned[i].Profile == profile {
			return &o.Tuned[i]
		}
	}
	return nil
}
