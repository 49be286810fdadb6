package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/session"
	"repro/internal/verify"
	"repro/internal/workload"
)

// nominalSeconds is the -seconds value the round counts below are sized
// for; another value scales the round counts, never the op lists.
const nominalSeconds = 10

// minRounds is the floor the scaling keeps.
const minRounds = 3

// workloadDef describes one workload: a fixed, seed-determined op list run
// for a fixed number of rounds.
type workloadDef struct {
	name string
	why  string
	// serial workloads run at GOMAXPROCS(1): one client, one thread, so the
	// collector and the rank goroutines cannot borrow a busy neighbour's
	// core. The others keep min(nproc, 4), because parallelism inside a
	// query or a sweep is something a later change may add.
	serial bool
	rounds int // timed rounds at nominalSeconds
	// setups is how many complete set-up passes run; setup_s is their
	// median (the lower of two). A pass costs about a round, so the count
	// is what the run-time cap leaves room for.
	setups  int
	warmups int // warm-up rounds inside each set-up pass
	// sim workloads take their op list from the sim ranking (selectSim),
	// which runs before set-up and outside setup_s: it is the benchmark
	// choosing its inputs, not the program setting up.
	sim   bool
	build func(b *buildCtx) (*instance, error)
}

// buildCtx is what one set-up pass receives.
type buildCtx struct {
	cfg      runConfig
	selected *simSelection // sim workloads only
	traced   bool          // the run records spans: stores are wrapped
}

// instance is a built workload: everything a round needs.
type instance struct {
	opName string
	ops    int
	// tr is swapped by the runner before each round: nil in untraced rounds.
	tr         *tracer
	beginRound func() error
	op         func(i int) error
	endRound   func() error
	// check is the untimed correctness phase; it returns how many checks it
	// attempted and the failures among them.
	check func() (int, []string)
	// simNorm is read after check.
	simNorm func() float64
}

// workloads is the table of the six workloads, in the order BENCHMARK.json
// lists them. (A function, not a package variable: cmd/repolint's
// TestRepoIsClean bans package-level mutable state tree-wide.)
func workloads() []workloadDef {
	return []workloadDef{
		{
			name:   "variant-build",
			why:    "compiler only, no simulation: analyze, apply, verify, compile and lower 40 programs x 6 knob plans; sim-side changes must read no change here",
			serial: true, rounds: 16, setups: 5, warmups: 1,
			build: buildVariantBuild,
		},
		{
			name:   "sim-compute",
			why:    "bytecode runs of the 12 programs with the fewest messages per simulated compute-ms x 3 machines: interpreter loop and cost charging dominate",
			serial: true, rounds: 5, setups: 2, warmups: 1,
			sim: true, build: buildSim(false),
		},
		{
			name:   "sim-comm",
			why:    "bytecode runs of the 12 finest-tiled prepush programs (most messages per compute-ms) x 3 machines: netsim events, rank hand-off and mpi matching dominate",
			serial: true, rounds: 12, setups: 5, warmups: 1,
			sim: true, build: buildSim(true),
		},
		{
			name:   "plan-cold",
			why:    "cold /plan queries (one scenario of each of 8 families x 3 machines) on a fresh session per round: tuner search, short runs and variant builds in their real proportion",
			rounds: 7, setups: 2, warmups: 1,
			build: buildPlan(false),
		},
		{
			name:   "plan-warm",
			why:    "the same queries answered from the memo with zero compiles: reads the session, memo and fingerprint state that plan-cold writes",
			serial: true, rounds: 4000, setups: 2, warmups: 200,
			build: buildPlan(true),
		},
		{
			name:   "sweep-tuned",
			why:    "one walk-checked, verified, tuned harness sweep over the seven single-site families: the only workload running the worker pool, the walk oracle and the verify ledger together",
			rounds: 10, setups: 2, warmups: 1,
			build: buildSweep,
		},
	}
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads() {
		if w.name == name {
			return &w
		}
	}
	return nil
}

// procs is the GOMAXPROCS a workload runs at.
func (w *workloadDef) procs() int {
	if w.serial {
		return 1
	}
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// timedRounds scales the round count with -seconds; -quick is two rounds.
func (w *workloadDef) timedRounds(cfg runConfig) int {
	if cfg.quick {
		return 2
	}
	n := (w.rounds*cfg.seconds + nominalSeconds/2) / nominalSeconds
	if n < minRounds {
		n = minRounds
	}
	return n
}

func (w *workloadDef) warmupRounds(cfg runConfig) int {
	if cfg.quick && w.warmups > 5 {
		return 5
	}
	return w.warmups
}

func (w *workloadDef) setupPasses(cfg runConfig) int {
	if cfg.quick {
		return 1
	}
	return w.setups
}

// ---- inputs ----------------------------------------------------------

// corpus generates C, the 40-scenario corpus of the seed (seed 0 is the
// canonical corpus of BENCH_harness.json). -quick keeps a 12-scenario
// prefix; the round-robin interleave keeps any prefix family-diverse.
func corpus(cfg runConfig) []workload.Scenario {
	c := workload.GenerateScenarios(workload.GenOptions{Seed: cfg.seed})
	if cfg.quick {
		c = c[:12]
	}
	return c
}

// familyPrefix is P: the first scenario of each of the nine families (the
// corpus is interleaved round-robin, so that is its first nine entries).
// -quick keeps three.
func familyPrefix(cfg runConfig, c []workload.Scenario) []workload.Scenario {
	if cfg.quick {
		return c[:3]
	}
	return c[:9]
}

// The two heaviest families, xchg and multi, close P, and their searches
// cost as much as the other seven families' together. The noise floor needs
// many samples of short ops to find a quiet moment on a busy sandbox, so the
// workloads whose ops are whole searches or whole sweeps leave them out as
// far as they can: over all of P, five 3.1 s plan-cold rounds spread 0.12-0.14
// and four 3.6 s sweeps 0.16 over ten runs.

// planPrefix is P without xchg (three queries, half of a round's time):
// nine rounds of 1.6 s instead of five of 3.1 s. multi stays: it is the only
// family whose search descends per site.
func planPrefix(cfg runConfig, c []workload.Scenario) []workload.Scenario {
	var p []workload.Scenario
	for _, sc := range familyPrefix(cfg, c) {
		if sc.Family != "xchg" {
			p = append(p, sc)
		}
	}
	return p
}

// sweepPrefix is P's seven single-site families: a sweep is one opaque op,
// so its noise floor is its fastest whole run, and ten 1.2 s sweeps find one.
func sweepPrefix(cfg runConfig, c []workload.Scenario) []workload.Scenario {
	if cfg.quick {
		return c[:3]
	}
	return c[:7]
}

// machineFor overlays the scenario's cost-model override, as the harness
// does for its sweeps.
func machineFor(sc workload.Scenario, m plan.Machine) plan.Machine {
	if sc.Costs != nil {
		m.Costs = *sc.Costs
	}
	return m
}

func arraysOf(sc workload.Scenario) []string {
	if len(sc.Arrays) > 0 {
		return sc.Arrays
	}
	return []string{"ar"}
}

// knobPlans is the six uniform plans of verify's clean sweep: the fixed
// decision plus every wait / send-order / interchange knob, and skip.
func knobPlans(k int64) []*plan.Plan {
	mk := func(d plan.Decision) *plan.Plan { return &plan.Plan{Schema: plan.Schema, Default: d} }
	return []*plan.Plan{
		mk(plan.Decision{K: k}),
		mk(plan.Decision{K: k, Wait: plan.WaitPerTile}),
		mk(plan.Decision{K: k, SendOrder: plan.SendSequential}),
		mk(plan.Decision{K: k, Interchange: plan.InterchangeOff}),
		mk(plan.Decision{K: k, Interchange: plan.InterchangeOn}),
		mk(plan.Decision{Skip: true}),
	}
}

// observed is what two runs of one program on one machine must agree on.
type observed struct {
	elapsed, messages, bytes int64
	output                   uint64
}

func observe(res *interp.Result) observed {
	h := fnv.New64a()
	for _, l := range res.OutputLines() {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return observed{
		elapsed:  int64(res.Elapsed()),
		messages: res.Stats.Messages,
		bytes:    res.Stats.Bytes,
		output:   h.Sum64(),
	}
}

// walkRun executes src on the tree-walking interpreter: the independent
// reference every check phase compares against.
func walkRun(src string, np int, m plan.Machine) (*interp.Result, error) {
	return exec.Runner{Engine: exec.EngineWalk}.Run(src, np, m.Costs, m.Profile)
}

// ---- variant-build ---------------------------------------------------

// buildVariant is the op of variant-build and the front-end probe: source
// text and plan in, lowered bytecode out, a fresh core.Program every time
// so Apply's plan-key memo never hits.
func buildVariant(tr *tracer, src string, pl *plan.Plan) (string, *exec.Program, error) {
	sp := tr.begin("core.Analyze")
	prog, err := core.Analyze(src, core.AnalyzeOptions{})
	tr.end(sp)
	if err != nil {
		return "", nil, fmt.Errorf("analyze: %w", err)
	}
	sp = tr.begin("core.Apply")
	out, rep, err := core.Apply(prog, pl)
	tr.end(sp)
	if err != nil {
		return "", nil, fmt.Errorf("apply: %w", err)
	}
	sp = tr.begin("verify.Variant")
	diags := verify.Variant(prog, pl, out, rep)
	tr.end(sp)
	if len(diags) != 0 {
		return "", nil, fmt.Errorf("verify: %s", verify.Summarize(diags))
	}
	sp = tr.begin("exec.CompileSource")
	p, err := exec.CompileSource(out)
	tr.end(sp)
	if err != nil {
		return "", nil, fmt.Errorf("compile: %w", err)
	}
	sp = tr.begin("exec.Bytecode")
	p.Bytecode()
	tr.end(sp)
	return out, p, nil
}

type variantOp struct {
	sc workload.Scenario
	pl *plan.Plan
}

func variantOps(c []workload.Scenario) []variantOp {
	var ops []variantOp
	for _, sc := range c {
		for _, pl := range knobPlans(sc.K) {
			ops = append(ops, variantOp{sc: sc, pl: pl})
		}
	}
	return ops
}

func buildVariantBuild(b *buildCtx) (*instance, error) {
	c := corpus(b.cfg)
	ops := variantOps(c)
	in := &instance{opName: "variant-build", ops: len(ops)}
	in.op = func(i int) error {
		o := ops[i]
		if _, _, err := buildVariant(in.tr, o.sc.Source, o.pl); err != nil {
			return fmt.Errorf("%s plan %s: %w", o.sc.Name, o.pl.Key(), err)
		}
		return nil
	}
	// The check phase runs what the compiler produced: each family's
	// default-plan variant against its original on the walk engine.
	var ratios []float64
	in.check = func() (int, []string) {
		var fails []string
		p := familyPrefix(b.cfg, c)
		machines := plan.DefaultSweep()
		for i, sc := range p {
			ratio, err := variantAgainstOriginal(sc, machineFor(sc, machines[i%len(machines)]))
			if err != nil {
				fails = append(fails, fmt.Sprintf("%s: %v", sc.Name, err))
				continue
			}
			ratios = append(ratios, ratio)
		}
		return len(p), fails
	}
	in.simNorm = func() float64 { return geomean(ratios) }
	return in, nil
}

// variantAgainstOriginal runs a scenario's default-plan variant and its
// original on the walk engine, requires the same observables, and returns
// transformed over original simulated makespan.
func variantAgainstOriginal(sc workload.Scenario, m plan.Machine) (float64, error) {
	prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
	if err != nil {
		return 0, err
	}
	out, rep, err := core.Apply(prog, core.Options{K: sc.K}.Plan())
	if err != nil {
		return 0, err
	}
	if rep.TransformedCount() == 0 {
		return 0, fmt.Errorf("transform did not fire: %s", rep.FirstRejection())
	}
	orig, err := walkRun(sc.Source, sc.NP, m)
	if err != nil {
		return 0, fmt.Errorf("walk original: %w", err)
	}
	pre, err := walkRun(out, sc.NP, m)
	if err != nil {
		return 0, fmt.Errorf("walk variant: %w", err)
	}
	if same, why := interp.SameObservable(orig, pre, arraysOf(sc)...); !same {
		return 0, fmt.Errorf("variant differs from original on %s: %s", m.Name, why)
	}
	return float64(pre.Elapsed()) / float64(orig.Elapsed()), nil
}

// ---- sim-compute / sim-comm ------------------------------------------

// simCandidate is one program of the sim pool: a scenario's original
// (K == 0) or its uniform-K prepush variant, with what one run of it under
// mpich-gm-2005 simulated. It crosses a process boundary as JSON (the
// ranking runs in a child process), so it carries the source's content key,
// not the source: set-up rebuilds the program and checks the key.
type simCandidate struct {
	Name    string `json:"name"`
	Index   int    `json:"index"` // scenario index in C
	K       int64  `json:"k"`     // 0 for the original
	Key     string `json:"key"`   // exec.KeyOf(source)
	Msgs    int64  `json:"msgs"`
	Compute int64  `json:"compute_ns"`      // Σ per-rank simulated compute
	Elapsed int64  `json:"elapsed_ns"`      // simulated makespan
	OrigEl  int64  `json:"orig_elapsed_ns"` // the scenario's original's makespan

	src string
}

// simSelection is the ranked pool's two ends.
type simSelection struct {
	Compute []simCandidate `json:"compute"`
	Comm    []simCandidate `json:"comm"`
}

// simPoolSize is how many programs each sim workload runs.
const simPoolSize = 12

// simPool builds the candidate pool: per scenario the original, the
// default-K variant and the floor(K/4) (min 1) variant, de-duplicated by
// source hash (a rejected K falls back to the original's bytes).
func simPool(c []workload.Scenario) ([]simCandidate, error) {
	var pool []simCandidate
	seen := map[exec.Key]bool{}
	for _, sc := range c {
		prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		quarter := sc.K / 4
		if quarter < 1 {
			quarter = 1
		}
		for _, k := range []int64{0, sc.K, quarter} {
			cand := simCandidate{Name: sc.Name + "#orig", Index: sc.Index, K: k, src: sc.Source}
			if k > 0 {
				cand.Name = fmt.Sprintf("%s#K%d", sc.Name, k)
				if cand.src, _, err = core.Apply(prog, core.Options{K: k}.Plan()); err != nil {
					return nil, fmt.Errorf("%s: %w", cand.Name, err)
				}
			}
			if key := exec.KeyOf(cand.src); !seen[key] {
				seen[key] = true
				cand.Key = key.String()
				pool = append(pool, cand)
			}
		}
	}
	return pool, nil
}

// rankSimPool measures every candidate once under mpich-gm-2005 and orders
// the pool by messages per simulated compute-ms, most first, ties by name.
// The numbers are simulated, so the order repeats exactly; the runs are
// spread over every core because nothing here is timed.
func rankSimPool(c []workload.Scenario, pool []simCandidate) error {
	gm := plan.MPICHGM2005()
	errs := make([]error, len(pool))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cand := &pool[i]
				sc := c[cand.Index]
				m := machineFor(sc, gm)
				res, err := exec.Runner{Engine: exec.EngineBytecode, Store: exec.NewMemStore()}.Run(cand.src, sc.NP, m.Costs, m.Profile)
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", cand.Name, err)
					continue
				}
				cand.Msgs = res.Stats.Messages
				cand.Elapsed = int64(res.Elapsed())
				for _, r := range res.Stats.PerRank {
					cand.Compute += int64(r.Compute)
				}
			}
		}()
	}
	for i := range pool {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	origEl := map[int]int64{}
	for _, cand := range pool {
		if cand.K == 0 {
			origEl[cand.Index] = cand.Elapsed
		}
	}
	for i := range pool {
		pool[i].OrigEl = origEl[pool[i].Index]
	}
	density := func(cand simCandidate) float64 { return float64(cand.Msgs) / (float64(cand.Compute) / 1e6) }
	sort.SliceStable(pool, func(i, j int) bool {
		di, dj := density(pool[i]), density(pool[j])
		if di != dj {
			return di > dj
		}
		return pool[i].Name < pool[j].Name
	})
	return nil
}

// selectSim is the sim workloads' input selection: the top of the ranking
// is sim-comm's list, the bottom sim-compute's.
func selectSim(cfg runConfig) (*simSelection, error) {
	c := corpus(cfg)
	pool, err := simPool(c)
	if err != nil {
		return nil, err
	}
	if err := rankSimPool(c, pool); err != nil {
		return nil, err
	}
	n := simPoolSize
	if cfg.quick {
		n = 4
	}
	return &simSelection{Comm: pool[:n], Compute: pool[len(pool)-n:]}, nil
}

type simOp struct {
	cand    simCandidate
	src     string
	sc      workload.Scenario
	machine plan.Machine
	prog    *exec.Program
}

func buildSim(comm bool) func(b *buildCtx) (*instance, error) {
	return func(b *buildCtx) (*instance, error) {
		list := b.selected.Compute
		if comm {
			list = b.selected.Comm
		}
		// Set-up regenerates the corpus and rebuilds each listed program
		// from source text; the selection only says which ones.
		c := corpus(b.cfg)
		machines := plan.DefaultSweep()
		var ops []simOp
		for _, cand := range list {
			sc := c[cand.Index]
			pl := plan.Uniform(plan.Identity())
			if cand.K > 0 {
				pl = core.Options{K: cand.K}.Plan()
			}
			src, p, err := buildVariant(nil, sc.Source, pl)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cand.Name, err)
			}
			if exec.KeyOf(src).String() != cand.Key {
				return nil, fmt.Errorf("%s: set-up rebuilt a different program than the selection ranked", cand.Name)
			}
			for _, m := range machines {
				ops = append(ops, simOp{cand: cand, src: src, sc: sc, machine: machineFor(sc, m), prog: p})
			}
		}
		in := &instance{opName: "sim-run", ops: len(ops)}
		// Every run of an op must repeat the first one's observables.
		ref := make([]*observed, len(ops))
		in.op = func(i int) error {
			o := ops[i]
			sp := in.tr.begin("exec.RunBytecode")
			res, err := o.prog.RunBytecode(o.sc.NP, o.machine.Profile, o.machine.Costs)
			in.tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", o.cand.Name, o.machine.Name, err)
			}
			got := observe(res)
			if ref[i] == nil {
				ref[i] = &got
			} else if got != *ref[i] {
				return fmt.Errorf("%s on %s: run differs from the first: %+v vs %+v", o.cand.Name, o.machine.Name, got, *ref[i])
			}
			return nil
		}
		// The check phase re-runs a third of the programs (which third
		// rotates with the seed; walk costs ~7 bytecode runs) on the walk
		// engine, machine rotating, and requires the same observables.
		in.check = func() (int, []string) {
			var fails []string
			n := 0
			for j, cand := range list {
				if (j+int(b.cfg.seed%3)+3)%3 != 0 {
					continue
				}
				n++
				o := ops[j*len(machines)+j%len(machines)]
				if err := simAgainstWalk(o); err != nil {
					fails = append(fails, fmt.Sprintf("%s on %s: %v", cand.Name, o.machine.Name, err))
				}
			}
			return n, fails
		}
		in.simNorm = func() float64 {
			ratios := make([]float64, len(list))
			for i, cand := range list {
				ratios[i] = float64(cand.Elapsed) / float64(cand.OrigEl)
			}
			return geomean(ratios)
		}
		return in, nil
	}
}

func simAgainstWalk(o simOp) error {
	bc, err := o.prog.RunBytecode(o.sc.NP, o.machine.Profile, o.machine.Costs)
	if err != nil {
		return err
	}
	walk, err := walkRun(o.src, o.sc.NP, o.machine)
	if err != nil {
		return fmt.Errorf("walk: %w", err)
	}
	if w, g := observe(walk), observe(bc); w != g {
		return fmt.Errorf("bytecode %+v, walk %+v", g, w)
	}
	if same, why := interp.SameObservable(walk, bc, arraysOf(o.sc)...); !same {
		return fmt.Errorf("bytecode differs from walk: %s", why)
	}
	return nil
}

// ---- plan-cold / plan-warm -------------------------------------------

type planOp struct {
	sc      workload.Scenario
	machine plan.Machine
	query   session.Query
}

func planOps(p []workload.Scenario) []planOp {
	var ops []planOp
	for _, sc := range p {
		for _, m := range plan.DefaultSweep() {
			ops = append(ops, planOp{sc: sc, machine: m, query: session.Query{
				Source: sc.Source, Machine: m.Name, NP: sc.NP, FixedK: sc.K, Arrays: sc.Arrays,
			}})
		}
	}
	return ops
}

// planAnswer is what every answer to one query must repeat.
type planAnswer struct {
	prepushNs, originalNs int64
	planKey               string
}

func buildPlan(warm bool) func(b *buildCtx) (*instance, error) {
	return func(b *buildCtx) (*instance, error) {
		c := corpus(b.cfg)
		ops := planOps(planPrefix(b.cfg, c))
		in := &instance{opName: "session.Plan", ops: len(ops)}
		var store *tracedStore // nil unless the run is traced
		var sess *session.Session
		fresh := func() error {
			opts := session.Options{}
			if b.traced {
				store = &tracedStore{inner: exec.NewMemStore()}
				opts.Store = store
			}
			var err error
			sess, err = session.New(opts)
			return err
		}
		last := make([]*session.Result, len(ops))
		ref := make([]*planAnswer, len(ops))
		ask := func(i int, wantHit bool) error {
			o := ops[i]
			res, err := sess.Plan(o.query)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", o.sc.Name, o.machine.Name, err)
			}
			last[i] = res
			ch := res.Choice
			if res.MemoHit != wantHit {
				return fmt.Errorf("%s on %s: memo hit = %v, want %v", o.sc.Name, o.machine.Name, res.MemoHit, wantHit)
			}
			if ch.Speedup < 1 {
				return fmt.Errorf("%s on %s: tuned speedup %.6f < 1", o.sc.Name, o.machine.Name, ch.Speedup)
			}
			got := planAnswer{prepushNs: ch.PrepushNs, originalNs: ch.OriginalNs, planKey: ch.Plan.Key()}
			if ref[i] == nil {
				ref[i] = &got
			} else if got != *ref[i] {
				return fmt.Errorf("%s on %s: answer differs from the first: %+v vs %+v", o.sc.Name, o.machine.Name, got, *ref[i])
			}
			return nil
		}
		setTracer := func() {
			if store != nil {
				store.setTracer(in.tr)
			}
		}
		if warm {
			// Set-up fills the memo with one cold pass; timed rounds must
			// then answer everything from it without a single compile.
			if err := fresh(); err != nil {
				return nil, err
			}
			for i := range ops {
				if err := ask(i, false); err != nil {
					return nil, err
				}
			}
			filled := sess.Stats()
			in.beginRound = func() error { setTracer(); return nil }
			in.op = func(i int) error { return ask(i, true) }
			in.endRound = func() error {
				if d := sess.Stats().Store.Sub(filled.Store); d.Compiled != 0 {
					return fmt.Errorf("warm round compiled %d variants", d.Compiled)
				}
				return nil
			}
		} else {
			// A fresh session per round: a scenario's three machines share
			// its analysis and compiled variants, as in the server.
			in.beginRound = func() error {
				if err := fresh(); err != nil {
					return err
				}
				setTracer()
				return nil
			}
			in.op = func(i int) error { return ask(i, false) }
		}
		// The check phase replays each mpich-gm plan through core.Apply and
		// the walk engine and requires the makespan the tuner recorded.
		in.check = func() (int, []string) {
			var fails []string
			n := 0
			for i, o := range ops {
				if o.machine.Name != plan.MPICHGM2005().Name {
					continue
				}
				n++
				if err := replayOnWalk(o, last[i]); err != nil {
					fails = append(fails, fmt.Sprintf("%s: %v", o.sc.Name, err))
				}
			}
			return n, fails
		}
		in.simNorm = func() float64 {
			var ratios []float64
			for _, res := range last {
				if res != nil {
					ratios = append(ratios, float64(res.Choice.PrepushNs)/float64(res.Choice.OriginalNs))
				}
			}
			return geomean(ratios)
		}
		return in, nil
	}
}

func replayOnWalk(o planOp, res *session.Result) error {
	if res == nil {
		return fmt.Errorf("no answer to replay")
	}
	prog, err := core.Analyze(o.sc.Source, core.AnalyzeOptions{NP: int64(o.sc.NP)})
	if err != nil {
		return err
	}
	out, _, err := core.Apply(prog, res.Choice.Plan)
	if err != nil {
		return fmt.Errorf("apply chosen plan: %w", err)
	}
	walk, err := walkRun(out, o.sc.NP, o.machine)
	if err != nil {
		return fmt.Errorf("walk: %w", err)
	}
	if got := int64(walk.Elapsed()); got != res.Choice.PrepushNs {
		return fmt.Errorf("walk makespan %d ns, tuner recorded %d ns", got, res.Choice.PrepushNs)
	}
	return nil
}

// ---- sweep-tuned -----------------------------------------------------

func sweepConfig(p []workload.Scenario) harness.Config {
	return harness.Config{Scenarios: p, Tune: true, TuneCheckEngine: exec.EngineWalk, Verify: true}
}

func buildSweep(b *buildCtx) (*instance, error) {
	p := sweepPrefix(b.cfg, corpus(b.cfg))
	in := &instance{opName: "harness.Run", ops: 1}
	var last *harness.Report
	in.op = func(int) error {
		cfg := sweepConfig(p)
		if in.tr != nil {
			// The traced round sees into the sweep through its variant
			// store; an untraced round keeps the private default session.
			store := &tracedStore{inner: exec.NewMemStore()}
			store.setTracer(in.tr)
			sess, err := session.New(session.Options{Store: store})
			if err != nil {
				return err
			}
			cfg.Session = sess
		}
		rep, err := harness.Run(cfg)
		if err != nil {
			return err
		}
		last = rep
		s := rep.Summary
		if s.Correct != s.Scenarios || s.Errors != 0 || s.VerifyFailures != 0 || s.NonPositive != 0 {
			return fmt.Errorf("sweep: %d/%d correct, %d errors, %d verify failures, %d non-positive speedups",
				s.Correct, s.Scenarios, s.Errors, s.VerifyFailures, s.NonPositive)
		}
		return nil
	}
	// The sweep carries its own oracle (walk-checked adopted plans), so
	// there is nothing left for a check phase to re-run.
	in.check = func() (int, []string) { return 0, nil }
	in.simNorm = func() float64 { return sweepNorm(last) }
	return in, nil
}

// sweepNorm is the geomean over (scenario, machine) of the chosen plan's
// simulated makespan over the original's.
func sweepNorm(rep *harness.Report) float64 {
	if rep == nil {
		return 0
	}
	var ratios []float64
	for _, o := range rep.Scenarios {
		for _, tr := range o.Tuned {
			for _, pr := range o.Profiles {
				if pr.Profile == tr.Profile && pr.OriginalNs > 0 {
					ratios = append(ratios, float64(tr.TunedNs)/float64(pr.OriginalNs))
				}
			}
		}
	}
	return geomean(ratios)
}

// ---- traced variant store --------------------------------------------

// tracedStore is the timing decorator behind the public exec.VariantStore
// interface: the two opaque ops (session.Plan, harness.Run) are seen into
// through the Get calls they make. It forwards the verify ledger so a
// traced sweep skips the same re-verifications an untraced one does.
type tracedStore struct {
	inner *exec.MemStore

	mu   sync.Mutex
	tr   *tracer
	seen map[exec.Key]bool
}

func (s *tracedStore) setTracer(tr *tracer) {
	s.mu.Lock()
	s.tr = tr
	s.mu.Unlock()
}

// Get records a hit or a miss span: a miss is the first sight of a source
// (the lookup that compiles, or waits on the single flight that does).
func (s *tracedStore) Get(src string) (*exec.Program, error) {
	s.mu.Lock()
	tr := s.tr
	name := "exec.VariantStore.Get/hit"
	if tr != nil {
		if s.seen == nil {
			s.seen = map[exec.Key]bool{}
		}
		if key := exec.KeyOf(src); !s.seen[key] {
			s.seen[key] = true
			name = "exec.VariantStore.Get/miss"
		}
	}
	s.mu.Unlock()
	done := tr.async(name)
	p, err := s.inner.Get(src)
	done()
	return p, err
}

func (s *tracedStore) Put(src string) error       { return s.inner.Put(src) }
func (s *tracedStore) Stats() exec.StoreStats     { return s.inner.Stats() }
func (s *tracedStore) MarkVerified(key exec.Key)  { s.inner.MarkVerified(key) }
func (s *tracedStore) Verified(key exec.Key) bool { return s.inner.Verified(key) }
