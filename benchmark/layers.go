package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/ftn"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/session"
	"repro/internal/tune"
	"repro/internal/workload"
)

// perLayer is what a traced run reports: one group per module of the
// repository, measured by timing the calls into that module's public
// functions from this directory. The probes are the same whichever workload
// is traced (only the bench.* group describes the traced workload itself),
// so every traced run reports every name. Exact metrics are simulated or
// counted and must repeat to the last digit for one seed.
func perLayer() []metricDef {
	return []metricDef{
		{Name: "workload.generate_ms_p50", Unit: "ms"},

		{Name: "ftn.lex_us_p50", Unit: "us"},
		{Name: "ftn.parse_us_p50", Unit: "us"},
		{Name: "ftn.print_us_p50", Unit: "us"},
		{Name: "ftn.tokens", Unit: "count", Exact: true},

		{Name: "analysis.find_us_p50", Unit: "us"},
		{Name: "analysis.sites", Unit: "count", Exact: true, Higher: true},

		{Name: "core.analyze_us_p50", Unit: "us"},
		{Name: "core.apply_us_p50", Unit: "us"},
		{Name: "core.apply_memo_us_p50", Unit: "us"},
		{Name: "core.fingerprint_us_p50", Unit: "us"},
		{Name: "transform.out_kb", Unit: "KiB", Exact: true},

		{Name: "plan.roundtrip_us_p50", Unit: "us"},

		{Name: "verify.variant_us_p50", Unit: "us"},

		{Name: "exec.compile_us_p50", Unit: "us"},
		{Name: "exec.lower_us_p50", Unit: "us"},
		{Name: "exec.bytecode_run_ms_p50", Unit: "ms"},
		{Name: "exec.closure_run_ms_p50", Unit: "ms"},
		{Name: "exec.host_ns_per_sim_us", Unit: "ns/us"},
		{Name: "exec.memstore_hit_us_p50", Unit: "us"},
		{Name: "exec.memstore_miss_us_p50", Unit: "us"},
		{Name: "exec.diskstore_put_us_p50", Unit: "us"},
		{Name: "exec.diskstore_get_us_p50", Unit: "us"},

		{Name: "interp.walk_run_ms_p50", Unit: "ms"},
		{Name: "interp.walk_over_bytecode", Unit: "ratio"},

		{Name: "netsim.event_ns", Unit: "ns"},
		{Name: "netsim.handoff_ns", Unit: "ns"},
		{Name: "netsim.transfer_ns", Unit: "ns"},
		{Name: "netsim.sim_makespan_ms_sum", Unit: "ms", Exact: true},

		{Name: "mpi.host_us_per_msg", Unit: "us"},
		{Name: "mpi.alltoall_us_p50", Unit: "us"},
		{Name: "mpi.isend_ring_us_per_msg", Unit: "us"},
		{Name: "mpi.messages_sum", Unit: "count", Exact: true},
		{Name: "mpi.bytes_sum", Unit: "count", Exact: true},
		{Name: "mpi.blocked_frac_orig", Unit: "ratio", Exact: true},
		{Name: "mpi.blocked_frac_prepush", Unit: "ratio", Exact: true},

		{Name: "tune.search_ms_p50", Unit: "ms"},
		{Name: "tune.evals_per_query", Unit: "count", Exact: true},
		{Name: "tune.candidates_per_query", Unit: "count", Exact: true},
		{Name: "tune.host_ms_per_eval", Unit: "ms"},
		{Name: "tune.identity_share", Unit: "ratio", Exact: true},
		{Name: "tune.self_share", Unit: "ratio"},
		{Name: "tune.memo_store_us_p50", Unit: "us"},
		{Name: "tune.memo_lookup_us_p50", Unit: "us"},

		{Name: "session.analyze_hit_us_p50", Unit: "us"},
		{Name: "session.store_hit_ratio", Unit: "ratio", Exact: true, Higher: true},
		{Name: "session.memo_hit_ratio", Unit: "ratio", Exact: true, Higher: true},
		{Name: "session.warm_over_cold", Unit: "ratio"},

		{Name: "harness.fixed_sweep_s", Unit: "s"},
		{Name: "harness.serial_over_parallel", Unit: "ratio", Higher: true},
		{Name: "harness.merge_ms_p50", Unit: "ms"},
		{Name: "harness.render_ms_p50", Unit: "ms"},
		{Name: "harness.variants_compiled", Unit: "count", Exact: true},
		{Name: "harness.cache_hits", Unit: "count", Exact: true, Higher: true},
		{Name: "harness.tiered_checks", Unit: "count", Exact: true},
		{Name: "harness.verified_variants", Unit: "count", Exact: true},
		{Name: "harness.verify_wall_ms", Unit: "ms"},

		{Name: "fleet.dispatch_overhead_ms_p50", Unit: "ms"},

		{Name: "bench.trace_overhead", Unit: "ratio"},
		{Name: "bench.round_s_p50", Unit: "s"},
		{Name: "bench.round_s_iqr", Unit: "ratio"},
		{Name: "bench.op_ms_p50", Unit: "ms"},
		{Name: "bench.op_ms_p90", Unit: "ms"},
		{Name: "bench.op_raw_ms_p99", Unit: "ms"},
		{Name: "bench.cpu_s", Unit: "s"},
		{Name: "bench.gc_cycles", Unit: "count"},
		{Name: "bench.gc_pause_ms", Unit: "ms"},
		{Name: "bench.allocs_per_op", Unit: "count"},
		{Name: "bench.calib_ms_p50", Unit: "ms"},
		{Name: "bench.calib_spread", Unit: "ratio"},
	}
}

// timer collects samples per metric name.
type timer map[string][]float64

// time runs fn and records its duration under name, in the unit whose
// nanosecond count is per (1e3 for us, 1e6 for ms).
func (t timer) time(name string, per float64, fn func()) {
	s := time.Now()
	fn()
	t[name] = append(t[name], float64(time.Since(s))/per)
}

const (
	perUs = 1e3
	perMs = 1e6
)

// probes carries the probe suite's inputs and outputs.
type probes struct {
	cfg    runConfig
	c      []workload.Scenario // the corpus
	p      []workload.Scenario // the cheap six-family prefix the run probes use
	reps   int
	t      timer
	values map[string]float64
}

// probeLayers runs every layer probe and returns the per-layer metrics
// (all but the bench.* group, which belongs to the traced workload).
func probeLayers(cfg runConfig) (map[string]float64, error) {
	pr := &probes{cfg: cfg, c: corpus(cfg), reps: 3, t: timer{}, values: map[string]float64{}}
	// The first six families are the cheap ones (a round of queries over
	// them costs about a second; xchg and multi cost three more).
	pr.p = pr.c[:6]
	if cfg.quick {
		pr.p, pr.reps = pr.c[:2], 1
	}
	serial := []func() error{
		pr.frontEnd, pr.runs, pr.netsim, pr.mpi, pr.tuneAndSession,
	}
	runtime.GOMAXPROCS(1)
	for _, probe := range serial {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	// The harness pool and the fleet's HTTP hop get the cores a sweep gets.
	sweep := findWorkload("sweep-tuned")
	runtime.GOMAXPROCS(sweep.procs())
	for _, probe := range []func() error{pr.harness, pr.fleet} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	for name, samples := range pr.t {
		pr.values[name] = median(samples)
	}
	return pr.values, nil
}

// frontEnd times the compiler layers over the whole corpus: lexer, parser,
// printer and analysis per program, then one variant-build round (40 x 6
// plans) under a private tracer whose spans give the per-call times.
func (pr *probes) frontEnd() error {
	for rep := 0; rep < pr.reps+2; rep++ {
		pr.t.time("workload.generate_ms_p50", perMs, func() {
			workload.GenerateScenarios(workload.GenOptions{Seed: pr.cfg.seed})
		})
	}
	gm := plan.MPICHGM2005().Name
	spanMetric := map[string]string{
		"core.Analyze":       "core.analyze_us_p50",
		"core.Apply":         "core.apply_us_p50",
		"verify.Variant":     "verify.variant_us_p50",
		"exec.CompileSource": "exec.compile_us_p50",
		"exec.Bytecode":      "exec.lower_us_p50",
	}
	var tokens, sites, outBytes int
	for rep := 0; rep < pr.reps; rep++ {
		for _, sc := range pr.c {
			var toks []ftn.Token
			var file *ftn.File
			var err error
			pr.t.time("ftn.lex_us_p50", perUs, func() { toks, err = ftn.Lex(sc.Source) })
			if err != nil {
				return fmt.Errorf("lex %s: %w", sc.Name, err)
			}
			pr.t.time("ftn.parse_us_p50", perUs, func() { file, err = ftn.Parse(sc.Source) })
			if err != nil {
				return fmt.Errorf("parse %s: %w", sc.Name, err)
			}
			pr.t.time("ftn.print_us_p50", perUs, func() { ftn.Print(file) })
			var ops []*analysis.Opportunity
			pr.t.time("analysis.find_us_p50", perUs, func() {
				ops, _ = analysis.FindOpportunities(file, analysis.Options{})
			})
			if rep == 0 {
				tokens += len(toks)
				sites += len(ops)
			}

			// Read beside write: the first Apply of a plan transforms, the
			// repeat is a memo hit plus the defensive copy of its report.
			prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
			if err != nil {
				return fmt.Errorf("analyze %s: %w", sc.Name, err)
			}
			def := core.Options{K: sc.K}.Plan()
			if _, _, err := core.Apply(prog, def); err != nil {
				return fmt.Errorf("apply %s: %w", sc.Name, err)
			}
			pr.t.time("core.apply_memo_us_p50", perUs, func() { _, _, err = core.Apply(prog, def) })
			if err != nil {
				return fmt.Errorf("apply %s: %w", sc.Name, err)
			}
			pr.t.time("core.fingerprint_us_p50", perUs, func() { core.Fingerprint(prog, gm) })
		}

		tr := newTracer()
		for _, o := range variantOps(pr.c) {
			out, _, err := buildVariant(tr, o.sc.Source, o.pl)
			if err != nil {
				return fmt.Errorf("%s: %w", o.sc.Name, err)
			}
			if rep == 0 {
				outBytes += len(out)
			}
			var rtErr error
			pr.t.time("plan.roundtrip_us_p50", perUs, func() {
				b, err := o.pl.Encode()
				if err != nil {
					rtErr = err
					return
				}
				back, err := plan.Decode(b)
				if err != nil {
					rtErr = err
					return
				}
				if back.Key() != o.pl.Key() {
					rtErr = fmt.Errorf("plan key changed in the round trip")
				}
			})
			if rtErr != nil {
				return fmt.Errorf("plan round trip %s: %w", o.sc.Name, rtErr)
			}
		}
		for _, s := range tr.spans {
			name := spanMetric[s.Name]
			pr.t[name] = append(pr.t[name], float64(s.End-s.Start)/perUs)
		}
	}
	pr.values["ftn.tokens"] = float64(tokens)
	pr.values["analysis.sites"] = float64(sites)
	pr.values["transform.out_kb"] = float64(outBytes) / 1024
	return nil
}

// runs times one simulated run per engine, and the variant stores, over the
// prefix's originals and default-plan variants under mpich-gm-2005. The
// simulated statistics of those runs are the exact netsim/mpi metrics.
func (pr *probes) runs() error {
	type program struct {
		sc      workload.Scenario
		src     string
		prepush bool
	}
	var list []program
	for _, sc := range pr.p {
		prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			return err
		}
		out, _, err := core.Apply(prog, core.Options{K: sc.K}.Plan())
		if err != nil {
			return err
		}
		list = append(list, program{sc: sc, src: sc.Source}, program{sc: sc, src: out, prepush: true})
	}

	dir, err := os.MkdirTemp("", "bench-diskstore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := exec.NewDiskStore(dir)
	if err != nil {
		return err
	}

	gm := plan.MPICHGM2005()
	mem := exec.NewMemStore()
	var hostNs, simComputeUs, prepushHostUs, prepushMsgs float64
	var walkMs, bytecodeMs float64
	var msgs, bytes, makespanNs int64
	var blocked, busy [2]int64 // [original, prepush]
	for _, p := range list {
		m := machineFor(p.sc, gm)
		var cp *exec.Program
		var err error
		pr.t.time("exec.memstore_miss_us_p50", perUs, func() { cp, err = mem.Get(p.src) })
		if err != nil {
			return fmt.Errorf("%s: %w", p.sc.Name, err)
		}
		pr.t.time("exec.memstore_hit_us_p50", perUs, func() { _, err = mem.Get(p.src) })
		if err != nil {
			return err
		}
		pr.t.time("exec.diskstore_put_us_p50", perUs, func() { err = disk.Put(p.src) })
		if err != nil {
			return fmt.Errorf("disk store put: %w", err)
		}

		var res *interp.Result
		var fastest float64
		for rep := 0; rep < pr.reps; rep++ {
			s := time.Now()
			res, err = cp.RunBytecode(p.sc.NP, m.Profile, m.Costs)
			d := float64(time.Since(s))
			if err != nil {
				return fmt.Errorf("%s: %w", p.sc.Name, err)
			}
			pr.t["exec.bytecode_run_ms_p50"] = append(pr.t["exec.bytecode_run_ms_p50"], d/perMs)
			if fastest == 0 || d < fastest {
				fastest = d
			}
			hostNs += d
			for _, r := range res.Stats.PerRank {
				simComputeUs += float64(r.Compute) / 1e3
			}
			if p.prepush {
				prepushHostUs += d / perUs
				prepushMsgs += float64(res.Stats.Messages)
			}
		}
		bytecodeMs += fastest / perMs
		which := 0
		if p.prepush {
			which = 1
		}
		msgs += res.Stats.Messages
		bytes += res.Stats.Bytes
		makespanNs += int64(res.Elapsed())
		for _, r := range res.Stats.PerRank {
			blocked[which] += int64(r.Blocked)
			busy[which] += int64(r.Compute) + int64(r.Blocked)
		}

		pr.t.time("exec.closure_run_ms_p50", perMs, func() { _, err = cp.Run(p.sc.NP, m.Profile, m.Costs) })
		if err != nil {
			return fmt.Errorf("closure run %s: %w", p.sc.Name, err)
		}
		s := time.Now()
		_, err = walkRun(p.src, p.sc.NP, m)
		d := float64(time.Since(s)) / perMs
		if err != nil {
			return fmt.Errorf("walk run %s: %w", p.sc.Name, err)
		}
		pr.t["interp.walk_run_ms_p50"] = append(pr.t["interp.walk_run_ms_p50"], d)
		walkMs += d
	}

	// A second store over the same directory: every Get is a checksum
	// verification plus a re-lower, never a compile from scratch.
	again, err := exec.NewDiskStore(dir)
	if err != nil {
		return err
	}
	for _, p := range list {
		var err error
		pr.t.time("exec.diskstore_get_us_p50", perUs, func() { _, err = again.Get(p.src) })
		if err != nil {
			return fmt.Errorf("disk store get: %w", err)
		}
	}
	if st := again.Stats(); st.DiskHits != int64(len(list)) {
		return fmt.Errorf("disk store served %d of %d lookups from disk", st.DiskHits, len(list))
	}

	pr.values["exec.host_ns_per_sim_us"] = hostNs / simComputeUs
	pr.values["interp.walk_over_bytecode"] = walkMs / bytecodeMs
	pr.values["mpi.host_us_per_msg"] = prepushHostUs / prepushMsgs
	pr.values["mpi.messages_sum"] = float64(msgs)
	pr.values["mpi.bytes_sum"] = float64(bytes)
	pr.values["netsim.sim_makespan_ms_sum"] = float64(makespanNs) / 1e6
	pr.values["mpi.blocked_frac_orig"] = float64(blocked[0]) / float64(busy[0])
	pr.values["mpi.blocked_frac_prepush"] = float64(blocked[1]) / float64(busy[1])
	return nil
}

// netsim times the simulator's three primitives in isolation: the event
// heap, the proc hand-off, and a transfer through the NIC model.
func (pr *probes) netsim() error {
	n := 100_000
	if pr.cfg.quick {
		n = 10_000
	}
	per := func(d time.Duration, count int) float64 { return float64(d) / float64(count) }

	eng := netsim.NewEngine()
	fired := 0
	s := time.Now()
	for i := 0; i < n; i++ {
		eng.At(netsim.Time(i%977)*netsim.Microsecond, func(netsim.Time) { fired++ })
	}
	if _, err := eng.Run(); err != nil {
		return err
	}
	pr.values["netsim.event_ns"] = per(time.Since(s), n)
	if fired != n {
		return fmt.Errorf("netsim: %d of %d timers fired", fired, n)
	}

	// Two procs ping-pong through completions: every iteration is two
	// hand-offs through the engine.
	eng = netsim.NewEngine()
	ping := make([]*netsim.Completion, n)
	pong := make([]*netsim.Completion, n)
	for i := range ping {
		ping[i], pong[i] = eng.NewCompletion(), eng.NewCompletion()
	}
	eng.Spawn(func(p *netsim.Proc) {
		for i := 0; i < n; i++ {
			ping[i].Complete(p.Now())
			p.Wait(pong[i], "pong")
		}
	})
	eng.Spawn(func(p *netsim.Proc) {
		for i := 0; i < n; i++ {
			p.Wait(ping[i], "ping")
			pong[i].Complete(p.Now())
		}
	})
	s = time.Now()
	if _, err := eng.Run(); err != nil {
		return err
	}
	pr.values["netsim.handoff_ns"] = per(time.Since(s), 2*n)

	// 8 -> 1 incast: eight senders queue on one receiving NIC.
	cl := netsim.NewCluster(9, plan.MPICHGM2005().Profile)
	delivered := 0
	s = time.Now()
	for i := 0; i < n; i++ {
		cl.Transfer(1+i%8, 0, 1024, netsim.Time(i/8)*netsim.Microsecond, func(netsim.Time) { delivered++ })
	}
	if _, err := cl.Eng.Run(); err != nil {
		return err
	}
	pr.values["netsim.transfer_ns"] = per(time.Since(s), n)
	if delivered != n {
		return fmt.Errorf("netsim: %d of %d transfers delivered", delivered, n)
	}
	return nil
}

// mpi times the two communication shapes the paper trades against each
// other: one alltoall, and the many small isend/irecv pairs that replace it.
func (pr *probes) mpi() error {
	const np = 8
	prof := plan.MPICHGM2005().Profile
	for rep := 0; rep < 10*pr.reps; rep++ {
		var err error
		pr.t.time("mpi.alltoall_us_p50", perUs, func() {
			_, err = mpi.Run(np, prof, func(r *mpi.Rank) {
				r.Alltoall(1024, func(int) interface{} { return nil }, func(int, interface{}) {})
			})
		})
		if err != nil {
			return err
		}
	}
	laps := 500
	if pr.cfg.quick {
		laps = 50
	}
	s := time.Now()
	st, err := mpi.Run(np, prof, func(r *mpi.Rank) {
		left, right := (r.Me()+np-1)%np, (r.Me()+1)%np
		for i := 0; i < laps; i++ {
			rx := r.Irecv(left, i, 256, func(interface{}) {})
			tx := r.Isend(right, i, 256, func() interface{} { return nil })
			r.Waitall([]*mpi.Request{rx, tx})
		}
	})
	if err != nil {
		return err
	}
	pr.values["mpi.isend_ring_us_per_msg"] = float64(time.Since(s)) / perUs / float64(st.Messages)
	return nil
}

// tuneAndSession asks the prefix's queries cold and then warm through a
// session, and prices what the search did: measured runs per query, the
// share of the search that is not replayable Apply + Get + Run work, and
// the memo's write and read sides.
func (pr *probes) tuneAndSession() error {
	sess, err := session.New(session.Options{})
	if err != nil {
		return err
	}
	ops := planOps(pr.p)
	choices := make([]tune.Choice, len(ops))
	var coldMs, evals, candidates, identity float64
	for i, o := range ops {
		var res *session.Result
		var err error
		s := time.Now()
		res, err = sess.Plan(o.query)
		d := float64(time.Since(s)) / perMs
		if err != nil {
			return fmt.Errorf("%s on %s: %w", o.sc.Name, o.machine.Name, err)
		}
		pr.t["tune.search_ms_p50"] = append(pr.t["tune.search_ms_p50"], d)
		choices[i] = res.Choice
		coldMs += d
		evals += float64(res.Choice.Evaluations)
		candidates += float64(len(res.Choice.Candidates))
		if allSkipped(res.Choice) {
			identity++
		}
	}
	n := float64(len(ops))
	pr.values["tune.evals_per_query"] = evals / n
	pr.values["tune.candidates_per_query"] = candidates / n
	pr.values["tune.host_ms_per_eval"] = coldMs / evals
	pr.values["tune.identity_share"] = identity / n

	warmReps := 5 * pr.reps
	for rep := 0; rep < warmReps; rep++ {
		for _, o := range ops {
			var res *session.Result
			var err error
			pr.t.time("session.warm_ms", perMs, func() { res, err = sess.Plan(o.query) })
			if err != nil || !res.MemoHit {
				return fmt.Errorf("%s on %s: warm query missed the memo (err %v)", o.sc.Name, o.machine.Name, err)
			}
			pr.t.time("session.analyze_hit_us_p50", perUs, func() { _, err = sess.Analyze(o.query.Source, int64(o.query.NP)) })
			if err != nil {
				return err
			}
		}
	}
	st := sess.Stats()
	pr.values["session.store_hit_ratio"] = float64(st.Store.Hits) / float64(st.Store.Hits+st.Store.Compiled)
	pr.values["session.memo_hit_ratio"] = float64(st.Memo.Hits) / float64(st.Memo.Hits+st.Memo.Misses)
	pr.values["session.warm_over_cold"] = median(pr.t["session.warm_ms"]) / median(pr.t["tune.search_ms_p50"])
	delete(pr.t, "session.warm_ms")

	memo := tune.NewMemo()
	for rep := 0; rep < warmReps; rep++ {
		for i, ch := range choices {
			key := fmt.Sprintf("probe-%d", i)
			pr.t.time("tune.memo_store_us_p50", perUs, func() { memo.Store(key, ch) })
			pr.t.time("tune.memo_lookup_us_p50", perUs, func() { memo.Lookup(key) })
		}
	}

	replayMs, err := replayCandidates(ops, choices)
	if err != nil {
		return err
	}
	self := coldMs - replayMs
	if self < 0 {
		self = 0
	}
	pr.values["tune.self_share"] = self / coldMs
	return nil
}

func allSkipped(ch tune.Choice) bool {
	for _, s := range ch.Sites {
		if !s.Decision.Normalize().Skip {
			return false
		}
	}
	return true
}

// replayCandidates redoes, outside the tuner, the work its candidates stand
// for: per scenario one analysis and one store shared by its machines (as in
// the cold session), per query the original's run, per candidate an Apply,
// a store Get and a bytecode run. The cold search time minus this is the
// tuner's own share.
func replayCandidates(ops []planOp, choices []tune.Choice) (float64, error) {
	var prog *core.Program
	var store *exec.MemStore
	s := time.Now()
	for i, o := range ops {
		if i == 0 || ops[i-1].sc.Name != o.sc.Name {
			var err error
			if prog, err = core.Analyze(o.sc.Source, core.AnalyzeOptions{NP: int64(o.sc.NP)}); err != nil {
				return 0, err
			}
			store = exec.NewMemStore()
		}
		run := func(src string) error {
			p, err := store.Get(src)
			if err != nil {
				return err
			}
			_, err = p.RunBytecode(o.sc.NP, o.machine.Profile, o.machine.Costs)
			return err
		}
		if err := run(o.sc.Source); err != nil {
			return 0, err
		}
		ch := choices[i]
		for _, cand := range ch.Candidates {
			pl := &plan.Plan{Schema: plan.Schema, Default: cand.Decisions[0]}
			skipped := 0
			for si, d := range cand.Decisions {
				pl.Set(ch.Sites[si].Site, d)
				if d.Normalize().Skip {
					skipped++
				}
			}
			if skipped == len(cand.Decisions) {
				continue // the identity candidate reuses the original's run
			}
			out, _, err := core.Apply(prog, pl)
			if err != nil {
				return 0, fmt.Errorf("replay %s: %w", o.sc.Name, err)
			}
			if err := run(out); err != nil {
				return 0, fmt.Errorf("replay %s: %w", o.sc.Name, err)
			}
		}
	}
	return float64(time.Since(s)) / perMs, nil
}

// harness prices the sweep machinery around the runs: an untuned sweep,
// what the worker pool buys, Merge, the renderers, and the counters of one
// tuned, walk-checked, verified sweep.
func (pr *probes) harness() error {
	sweep := func(cfg harness.Config) (*harness.Report, float64, error) {
		s := time.Now()
		rep, err := harness.Run(cfg)
		d := time.Since(s).Seconds()
		if err == nil && rep.Summary.Correct != rep.Summary.Scenarios {
			err = fmt.Errorf("harness probe: %d of %d scenarios correct", rep.Summary.Correct, rep.Summary.Scenarios)
		}
		return rep, d, err
	}
	// Sub-second sweeps: the fastest of a few is the one to compare.
	fastest := func(cfg harness.Config) (float64, error) {
		best := 0.0
		for rep := 0; rep < pr.reps; rep++ {
			_, d, err := sweep(cfg)
			if err != nil {
				return 0, err
			}
			if best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	parallelS, err := fastest(harness.Config{Scenarios: pr.p})
	if err != nil {
		return err
	}
	serialS, err := fastest(harness.Config{Scenarios: pr.p, Parallelism: 1})
	if err != nil {
		return err
	}
	pr.values["harness.fixed_sweep_s"] = parallelS
	pr.values["harness.serial_over_parallel"] = serialS / parallelS

	var halves []*harness.Report
	for _, spec := range []string{"0/2", "1/2"} {
		shard, err := workload.SelectShard(pr.p, spec)
		if err != nil {
			return err
		}
		rep, _, err := sweep(harness.Config{Scenarios: shard})
		if err != nil {
			return err
		}
		halves = append(halves, rep)
	}
	dir, err := os.MkdirTemp("", "bench-render-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var merged *harness.Report
	for rep := 0; rep < 5*pr.reps; rep++ {
		var err error
		pr.t.time("harness.merge_ms_p50", perMs, func() { merged, err = harness.Merge(halves) })
		if err != nil {
			return fmt.Errorf("merge: %w", err)
		}
		pr.t.time("harness.render_ms_p50", perMs, func() {
			_ = merged.Table()
			_ = merged.MarkdownSummary("probe")
			err = merged.WriteJSON(filepath.Join(dir, "report.json"))
		})
		if err != nil {
			return fmt.Errorf("render: %w", err)
		}
	}

	tuned, _, err := sweep(sweepConfig(pr.p))
	if err != nil {
		return err
	}
	s := tuned.Summary
	pr.values["harness.variants_compiled"] = float64(s.VariantsCompiled)
	pr.values["harness.cache_hits"] = float64(s.CacheHits)
	pr.values["harness.tiered_checks"] = float64(s.TieredChecks)
	pr.values["harness.verified_variants"] = float64(s.VerifiedVariants)
	pr.values["harness.verify_wall_ms"] = float64(s.VerifyWallNs) / perMs
	return nil
}

// fleet sends each prefix scenario's mpich-gm query through an in-process
// coordinator and one worker on loopback servers, and subtracts what the
// same query costs inline. Both sides answer from a filled memo, so the
// difference is dispatch alone: two HTTP hops, JSON both ways, one poll.
func (pr *probes) fleet() error {
	workerSess, err := session.New(session.Options{})
	if err != nil {
		return err
	}
	inlineSess, err := session.New(session.Options{})
	if err != nil {
		return err
	}
	worker := httptest.NewServer(fleet.NewWorker(workerSess).Mux())
	defer worker.Close()
	coord := fleet.NewCoordinator(fleet.Options{})
	defer coord.Close()
	coord.Register(worker.URL)
	front := httptest.NewServer(coord.Mux())
	defer front.Close()
	client := &fleet.Client{Base: front.URL, Poll: time.Millisecond}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	gm := plan.MPICHGM2005().Name
	for rep := 0; rep <= 2*pr.reps; rep++ {
		for _, o := range planOps(pr.p) {
			if o.machine.Name != gm {
				continue
			}
			s := time.Now()
			local, err := inlineSess.Plan(o.query)
			if err != nil {
				return err
			}
			inline := time.Since(s)
			s = time.Now()
			remote, err := client.RunTune(ctx, o.query)
			if err != nil {
				return fmt.Errorf("fleet tune %s: %w", o.sc.Name, err)
			}
			dispatched := time.Since(s)
			if rep == 0 {
				continue // the cold pass fills both memos
			}
			if !local.MemoHit || !remote.MemoHit {
				return fmt.Errorf("fleet tune %s: a repeat query missed the memo", o.sc.Name)
			}
			pr.t["fleet.dispatch_overhead_ms_p50"] = append(pr.t["fleet.dispatch_overhead_ms_p50"], float64(dispatched-inline)/perMs)
		}
	}
	return nil
}
