package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
	quick    bool
}

// metricDef names one metric; the tables below are the single list that
// BENCHMARK.json, the printed lines and the result object are checked
// against.
type metricDef struct {
	Name  string
	Unit  string
	Bound float64 // end-to-end only: allowed worsening as a share of the median
	// Exact per-layer metrics are simulated or counted, never timed: two
	// runs of one seed must agree to the last digit.
	Exact bool
	// Higher marks the few counts where more is better.
	Higher bool
}

// endToEnd is what a user of the system would see. All are lower-is-better.
//
// The one timing among them is round_s_best, the round's noise floor: the
// sum over the ops of each op's fastest sample. On this shared sandbox a
// neighbour slows whole runs by 10-60 % for minutes at a time; medians of
// rounds or of ops moved 9-19 % between runs of one commit while this sum
// moved 2-7 % (README, "Why it repeats"). The medians are still printed, and
// reported per layer as bench.round_s_p50 / bench.op_ms_p50 / bench.op_ms_p90.
func endToEnd() []metricDef {
	return []metricDef{
		{Name: "setup_s", Unit: "s", Bound: 0.25},
		{Name: "round_s_best", Unit: "s", Bound: 0.25},
		{Name: "alloc_mb", Unit: "MiB", Bound: 0.02},
		{Name: "peak_rss_mb", Unit: "MiB", Bound: 0.20},
		{Name: "sim_norm_time", Unit: "ratio", Bound: 1e-9},
	}
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rusage returns peak resident memory in MiB and CPU seconds so far.
func rusage() (peakMiB, cpuS float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return float64(ru.Maxrss) / 1024, tv(ru.Utime) + tv(ru.Stime) // Maxrss is KiB on Linux
}

// roundLog collects what the timed rounds measured.
type roundLog struct {
	roundS []float64 // one per round
	opMs   []float64 // one per op, all rounds pooled
	best   []float64 // per op index: its fastest sample, ms
	failed int
	fails  []string // the first few failure messages
}

func newRoundLog(rounds, ops int) *roundLog {
	return &roundLog{
		roundS: make([]float64, 0, rounds),
		opMs:   make([]float64, 0, rounds*ops),
		best:   make([]float64, ops),
	}
}

func (l *roundLog) fail(msg string) {
	l.failed++
	if len(l.fails) < 5 {
		l.fails = append(l.fails, msg)
	}
}

// runRound executes one pass over the op list. With log == nil it is a
// warm-up round: failures still count (returned), nothing is recorded.
func runRound(in *instance, tr *tracer, roundNo int, log *roundLog) error {
	in.tr = tr
	t0 := time.Now()
	var firstErr error
	note := func(err error) {
		if err == nil {
			return
		}
		if firstErr == nil {
			firstErr = err
		}
		if log != nil {
			log.fail(err.Error())
		}
	}
	if in.beginRound != nil {
		note(in.beginRound())
	}
	for i := 0; i < in.ops; i++ {
		sp := tr.beginOp(in.opName, roundNo*in.ops+i)
		s := time.Now()
		err := in.op(i)
		ms := float64(time.Since(s)) / 1e6
		tr.end(sp)
		note(err)
		if log != nil {
			log.opMs = append(log.opMs, ms)
			if log.best[i] == 0 || ms < log.best[i] {
				log.best[i] = ms
			}
		}
	}
	if in.endRound != nil {
		note(in.endRound())
	}
	if log != nil {
		log.roundS = append(log.roundS, time.Since(t0).Seconds())
	}
	return firstErr
}

// setUp runs the workload's set-up passes and returns the last pass's
// instance and every pass's duration. Each pass regenerates the corpus,
// rebuilds the op list and runs its warm-up rounds, so setup_s is seconds of
// the same work as the rounds.
func setUp(w *workloadDef, cfg runConfig, selected *simSelection) (*instance, []float64, error) {
	var in *instance
	var setupS []float64
	for pass := 0; pass < w.setupPasses(cfg); pass++ {
		runtime.GC() // every pass starts from a collected heap, not the last pass's garbage
		t0 := time.Now()
		var err error
		if in, err = w.build(&buildCtx{cfg: cfg, selected: selected, traced: cfg.trace}); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		for r := 0; r < w.warmupRounds(cfg); r++ {
			if err := runRound(in, nil, -1-r, nil); err != nil {
				return nil, nil, fmt.Errorf("warm-up round: %w", err)
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	runtime.GC()
	return in, setupS, nil
}

// runWorkload is one whole run: set-up passes, timed rounds, check phase,
// and (traced) the layer probes. selected is the sim ranking's outcome for
// the sim workloads, nil for the others.
func runWorkload(w *workloadDef, cfg runConfig, selected *simSelection, out io.Writer) (*result, error) {
	calib := newCalibrator()
	runtime.GOMAXPROCS(w.procs())
	in, setupS, err := setUp(w, cfg, selected)
	if err != nil {
		return nil, err
	}

	rounds := w.timedRounds(cfg)
	var tr *tracer
	var traced *roundLog // nil unless the run is traced
	untraced := newRoundLog(rounds, in.ops)
	if cfg.trace {
		// A traced run alternates untraced and traced rounds; their ratio
		// is the tracing overhead. Half the rounds of each is enough: the
		// end-to-end numbers never come from this run.
		tr = newTracer()
		if rounds = rounds / 2; rounds < 1 {
			rounds = 1
		}
		traced = newRoundLog(rounds, in.ops)
	}

	var ms0, ms1 runtime.MemStats
	var gc0, gc1 debug.GCStats
	debug.ReadGCStats(&gc0)
	runtime.ReadMemStats(&ms0)
	_, cpu0 := rusage()
	timedStart := time.Now()
	calib.run()
	for r := 0; r < rounds; r++ {
		_ = runRound(in, nil, r, untraced)
		calib.between()
		if cfg.trace {
			_ = runRound(in, tr, r, traced)
			calib.between()
		}
	}
	if len(calib.samples) < 2 {
		calib.run()
	}
	timedS := time.Since(timedStart).Seconds()
	_, cpu1 := rusage()
	runtime.ReadMemStats(&ms1)
	debug.ReadGCStats(&gc1)

	checked, checkFails := in.check()
	failed := untraced.failed + len(checkFails)
	attempted := len(untraced.opMs) + checked
	fails := append(append([]string(nil), untraced.fails...), checkFails...)
	if cfg.trace {
		failed += traced.failed
		attempted += len(traced.opMs)
		fails = append(fails, traced.fails...)
	}
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}

	nRounds := len(untraced.roundS)
	if cfg.trace {
		nRounds *= 2
	}
	peak, _ := rusage()
	// Op percentiles are taken over per-op medians, so a burst of sandbox
	// noise has to cover half the rounds before it moves them.
	perOp := sorted(perOpMedians(untraced.opMs, in.ops))
	p90rank := highRank(in.ops, len(untraced.roundS), 0.90)
	values := map[string]float64{
		"setup_s":       median(setupS),
		"round_s_best":  sum(untraced.best) / 1e3,
		"alloc_mb":      float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(nRounds) / (1 << 20),
		"peak_rss_mb":   peak,
		"sim_norm_time": in.simNorm(),
	}

	fmt.Fprintf(out, "workload %s seed %d gomaxprocs %d\n", w.name, cfg.seed, w.procs())
	fmt.Fprintf(out, "rounds %d  ops %d per round  failed %d of %d attempted\n", len(untraced.roundS), in.ops, failed, attempted)
	fmt.Fprintf(out, "setup passes %d  timed region %.3f s\n", len(setupS), timedS)
	fmt.Fprintf(out, "round_s_p50 %.6f s over %d rounds (iqr/median %.3f)\n", median(untraced.roundS), len(untraced.roundS), iqrShare(untraced.roundS))
	fmt.Fprintf(out, "op_ms_p50 %.6f ms  op_ms_p90 %.6f ms (rank %d) over %d per-op medians of %d samples each\n",
		median(perOp), perOp[p90rank-1], p90rank, in.ops, len(untraced.roundS))
	cs := sorted(calib.samples)
	fmt.Fprintf(out, "calibration %.3f ms median over %d samples (min %.3f, max %.3f), spread %.3f\n", median(cs), len(cs), cs[0], cs[len(cs)-1], calib.spread())
	if calib.spread() > disturbedSpread {
		fmt.Fprintf(out, "disturbed: calibration spread %.3f exceeds %.2f; the sandbox was busy, timings in this run are suspect\n", calib.spread(), disturbedSpread)
	}

	defs := endToEnd()
	if cfg.trace {
		defs = perLayer()
		bench := map[string]float64{
			"bench.trace_overhead": sum(traced.best)/sum(untraced.best) - 1,
			"bench.round_s_p50":    median(untraced.roundS),
			"bench.round_s_iqr":    iqrShare(untraced.roundS),
			"bench.op_ms_p50":      median(perOp),
			"bench.op_ms_p90":      perOp[p90rank-1],
			"bench.op_raw_ms_p99":  nearestRank(untraced.opMs, 0.99),
			"bench.cpu_s":          cpu1 - cpu0,
			"bench.gc_cycles":      float64(gc1.NumGC - gc0.NumGC),
			"bench.gc_pause_ms":    float64(gc1.PauseTotal-gc0.PauseTotal) / 1e6,
			"bench.allocs_per_op":  float64(ms1.Mallocs-ms0.Mallocs) / float64(nRounds*in.ops),
			"bench.calib_ms_p50":   median(calib.samples),
			"bench.calib_spread":   calib.spread(),
		}
		fmt.Fprintf(out, "traced rounds %d; self time by span name:\n", len(traced.roundS))
		for _, row := range layerTable(tr.spans) {
			fmt.Fprintf(out, "  %-32s %8d spans %12.3f ms self\n", row.Name, row.Count, float64(row.SelfNs)/1e6)
		}
		if cfg.traceOut != "" {
			if err := writeTrace(cfg.traceOut, traceFile{Workload: w.name, Seed: cfg.seed, Spans: tr.spans}); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
		}
		for _, d := range endToEnd() { // shown for context; not part of a traced result
			fmt.Fprintf(out, "(untraced rounds of this run) %s %.6g %s\n", d.Name, values[d.Name], d.Unit)
		}
		layers, err := probeLayers(cfg)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		values = bench
		for name, v := range layers {
			values[name] = v
		}
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Fprintf(out, "%-36s %16.9g %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(values), len(defs))
	}
	return res, nil
}
