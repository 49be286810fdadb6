// Benchmark harness regenerating every figure of the paper plus the
// ablations listed in DESIGN.md §4. Wall-clock time of a benchmark
// iteration is simulation effort; the quantity the paper reports is
// VIRTUAL execution time, exported per benchmark via the custom metrics
//
//	vms/op   — virtual milliseconds of cluster time per simulated run
//	norm     — virtual time normalized to the best variant (Figure 1's
//	           y-axis), reported by the *_Normalized benchmarks
//
// Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/session"
	"repro/internal/verify"
	"repro/internal/workload"
)

// simulate runs src on np ranks under machine m and returns virtual time.
func simulate(b *testing.B, src string, np int, m plan.Machine) netsim.Time {
	b.Helper()
	res, err := exec.Runner{}.Run(src, np, m.Costs, m.Profile)
	if err != nil {
		b.Fatal(err)
	}
	return res.Elapsed()
}

// transform rewrites src under the uniform plan d (Analyze → Apply) or
// fails the benchmark.
func transform(b *testing.B, src string, d plan.Decision) string {
	b.Helper()
	prog, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	out, rep, err := core.Apply(prog, plan.Uniform(d))
	if err != nil {
		b.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		b.Fatalf("transform did not fire:\n%s", rep)
	}
	return out
}

// gmWith returns the paper's offload machine charging computation against
// costs (nil keeps the machine's own).
func gmWith(costs *interp.CostModel) plan.Machine {
	m := plan.MPICHGM2005()
	if costs != nil {
		m.Costs = *costs
	}
	return m
}

// BenchmarkFigure1 reproduces the paper's measured figure: the four bars
// MPICH original/prepush and MPICH-GM original/prepush, each stack at its
// own tile size (workload.Figure1).
func BenchmarkFigure1(b *testing.B) {
	sc, tileFor := workload.Figure1()
	for _, m := range plan.PaperPair() {
		m.Costs = *sc.Costs
		variants := map[string]string{
			"Original": sc.Source,
			"Prepush":  transform(b, sc.Source, plan.Decision{K: tileFor[m.Name]}),
		}
		for _, variant := range []string{"Original", "Prepush"} {
			b.Run(fmt.Sprintf("%s/%s", m.Name, variant), func(b *testing.B) {
				var total netsim.Time
				for i := 0; i < b.N; i++ {
					total += simulate(b, variants[variant], sc.NP, m)
				}
				b.ReportMetric(float64(total)/float64(b.N)/1e6, "vms/op")
			})
		}
	}
}

// BenchmarkFigure1_Normalized reports the normalized-execution-time bars in
// one shot (it runs all four configurations per iteration).
func BenchmarkFigure1_Normalized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		tcp, gm := rows[0], rows[1]
		best := float64(gm.PrepushNs)
		b.ReportMetric(float64(tcp.OriginalNs)/best, "tcp-orig")
		b.ReportMetric(float64(tcp.PrepushNs)/best, "tcp-pre")
		b.ReportMetric(float64(gm.OriginalNs)/best, "gm-orig")
		b.ReportMetric(float64(gm.PrepushNs)/best, "gm-pre")
	}
}

// BenchmarkFigure2_TransformDirect measures the Compuniformer itself on the
// Fig. 2(a) direct-pattern program (analysis + rewrite + unparse).
func BenchmarkFigure2_TransformDirect(b *testing.B) {
	src := workload.DirectSource(workload.DirectParams{NX: 64, Outer: 4, NP: 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := transform(b, src, plan.Decision{K: 4}); len(out) == 0 {
			b.Fatal("transform produced no source")
		}
	}
}

// BenchmarkFigure3_TransformIndirect measures the indirect-pattern pipeline
// (copy-loop recognition + slab verification + rewrite).
func BenchmarkFigure3_TransformIndirect(b *testing.B) {
	src := workload.IndirectSource(workload.IndirectParams{N: 8, NP: 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := transform(b, src, plan.Decision{K: 2}); len(out) == 0 {
			b.Fatal("transform produced no source")
		}
	}
}

// BenchmarkFigure4_CommGen measures generation of the staggered all-peers
// exchange for the inner-node-loop form.
func BenchmarkFigure4_CommGen(b *testing.B) {
	src := workload.Inner3DSource(workload.Inner3DParams{M: 4, NY: 16, SZ: 8, NP: 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := transform(b, src, plan.Decision{K: 4}); len(out) == 0 {
			b.Fatal("transform produced no source")
		}
	}
}

// BenchmarkHarnessSweep runs the differential evaluation harness on a
// family-diverse corpus prefix under both execution engines and reports
// the aggregate offload-profile overlap gain (gm-geomean, the regression
// gate of cmd/evalrunner) as a custom metric alongside the sweep's wall
// cost — the walk/bytecode ratio here is the speedup the fast tier buys
// the measurement loop.
func BenchmarkHarnessSweep(b *testing.B) {
	corpus := workload.GenerateScenarios(workload.GenOptions{Limit: 6})
	for _, engine := range []exec.Engine{exec.EngineWalk, exec.EngineBytecode} {
		b.Run(string(engine), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sess, err := session.New(session.Options{Engine: engine})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := harness.Run(harness.Config{Scenarios: corpus, Parallelism: 4, Session: sess})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Summary.Correct != rep.Summary.Scenarios {
					b.Fatalf("correctness oracle failed:\n%s", rep.Table())
				}
				b.ReportMetric(rep.Summary.GeomeanSpeedup["mpich-gm-2005"], "gm-geomean")
			}
		})
	}
}

// BenchmarkEngineRun compares one simulated run per engine on a mid-size
// corpus kernel: the walk engine pays parse + tree-walk every time, the
// bytecode tier replays a cached program through its lowered register
// machine.
func BenchmarkEngineRun(b *testing.B) {
	sc := workload.GenerateScenarios(workload.GenOptions{Limit: 4})[3]
	m := plan.MPICHGM2005()
	for _, engine := range []exec.Engine{exec.EngineWalk, exec.EngineBytecode} {
		b.Run(string(engine), func(b *testing.B) {
			runner := exec.Runner{Engine: engine, Store: exec.NewMemStore()}
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(sc.Source, sc.NP, m.Costs, m.Profile); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrepushRuns runs the finest-tiled variant the simulator benchmark
// draws from — tile size ⌊K/4⌋ — of the first scenario of each of the nine
// families, under each machine of the default sweep, through the bytecode
// engine: one iteration is 27 simulated runs that are almost all messages.
// Its heap profile is the simulator's (docs/profile-layers.md):
//
//	go test -run '^$' -bench PrepushRuns -benchtime 20x -memprofile mem.pprof
func BenchmarkPrepushRuns(b *testing.B) {
	type run struct {
		p  *exec.Program
		np int
		m  plan.Machine
	}
	var runs []run
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{Limit: 9}) {
		prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		src, _, err := core.Apply(prog, core.Options{K: max(1, sc.K/4)}.Plan())
		if err != nil {
			b.Fatal(err)
		}
		p, err := exec.CompileSource(src)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range plan.DefaultSweep() {
			if sc.Costs != nil {
				m.Costs = *sc.Costs
			}
			runs = append(runs, run{p, sc.NP, m})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			if _, err := r.p.RunBytecode(r.np, r.m.Profile, r.m.Costs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkVerifyVariant prices the static verification tier against one
// walk-engine run on the same variant: the correctness-tier cost ladder
// (static verify → walk oracle) in numbers. Static verification re-parses
// and re-analyzes but never executes, so it is the microsecond-scale
// check planserver can afford on every /plan answer.
func BenchmarkVerifyVariant(b *testing.B) {
	sc := workload.GenerateScenarios(workload.GenOptions{Limit: 4})[3]
	pl := plan.Uniform(plan.Decision{K: sc.K})
	prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	out, rep, err := core.Apply(prog, pl)
	if err != nil {
		b.Fatal(err)
	}
	m := plan.MPICHGM2005()
	b.Run("static-verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if diags := verify.Variant(prog, pl, out, rep); len(diags) != 0 {
				b.Fatalf("clean variant flagged: %s", verify.Summarize(diags))
			}
		}
	})
	b.Run("walk-run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (exec.Runner{Engine: exec.EngineWalk}).Run(out, sc.NP, m.Costs, m.Profile); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompile measures the compile step itself (parse + name
// resolution) — paid once per variant, like the lowering below.
func BenchmarkCompile(b *testing.B) {
	sc := workload.GenerateScenarios(workload.GenOptions{Limit: 4})[3]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exec.CompileSource(sc.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBytecodeCompile measures a fresh compile plus the lowering of
// every unit to bytecode — the whole one-time cost of a variant before its
// cached register program replays for free. Compare against
// BenchmarkCompile for the lowering's share.
func BenchmarkBytecodeCompile(b *testing.B) {
	sc := workload.GenerateScenarios(workload.GenOptions{Limit: 4})[3]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := exec.CompileSource(sc.Source)
		if err != nil {
			b.Fatal(err)
		}
		p.Bytecode()
	}
}

// ablationKernel is a smaller inner-node-loop kernel for parameter sweeps.
func ablationKernel() (string, *interp.CostModel) {
	p := workload.Inner3DParams{M: 64, NY: 32, SZ: 8, NP: 4, Weight: 1}
	costs := interp.DefaultCosts()
	costs.Store = 8 * netsim.Nanosecond
	return workload.Inner3DSource(p), &costs
}

// BenchmarkAblation_TileSweep (A1): sensitivity to the tile size K, the
// parameter the paper declares out of scope but performance-critical (§2).
func BenchmarkAblation_TileSweep(b *testing.B) {
	src, costs := ablationKernel()
	for _, k := range []int64{1, 2, 4, 8, 16, 32} {
		pre := transform(b, src, plan.Decision{K: k})
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var total netsim.Time
			for i := 0; i < b.N; i++ {
				total += simulate(b, pre, 4, gmWith(costs))
			}
			b.ReportMetric(float64(total)/float64(b.N)/1e6, "vms/op")
		})
	}
}

// BenchmarkAblation_NPSweep (A2): scaling with the number of ranks (the §1
// scalability motivation).
func BenchmarkAblation_NPSweep(b *testing.B) {
	for _, np := range []int{2, 4, 8} {
		p := workload.Inner3DParams{M: 64, NY: 32, SZ: 8, NP: np, Weight: 1}
		src := workload.Inner3DSource(p)
		pre := transform(b, src, plan.Decision{K: 8})
		costs := interp.DefaultCosts()
		costs.Store = 8 * netsim.Nanosecond
		for variant, text := range map[string]string{"orig": src, "pre": pre} {
			b.Run(fmt.Sprintf("np=%d/%s", np, variant), func(b *testing.B) {
				var total netsim.Time
				for i := 0; i < b.N; i++ {
					total += simulate(b, text, np, gmWith(&costs))
				}
				b.ReportMetric(float64(total)/float64(b.N)/1e6, "vms/op")
			})
		}
	}
}

// BenchmarkAblation_MsgSize (A3): eager-vs-rendezvous crossover on the
// direct 1-D kernel (paper Fig. 2 shape) as the array grows.
func BenchmarkAblation_MsgSize(b *testing.B) {
	for _, nx := range []int{4096, 16384, 65536} {
		p := workload.DirectParams{NX: nx, Outer: 2, NP: 4, Weight: 2}
		src := workload.DirectSource(p)
		pre := transform(b, src, plan.Decision{K: int64(nx / 4 / 4)}) // 4 tiles per partition
		for variant, text := range map[string]string{"orig": src, "pre": pre} {
			b.Run(fmt.Sprintf("nx=%d/%s", nx, variant), func(b *testing.B) {
				var total netsim.Time
				for i := 0; i < b.N; i++ {
					total += simulate(b, text, 4, gmWith(nil))
				}
				b.ReportMetric(float64(total)/float64(b.N)/1e6, "vms/op")
			})
		}
	}
}

// interchangeKernel has the node loop outermost with a legal interchange.
const interchangeKernel = `
program swapk
  implicit none
  include 'mpif.h'
  integer, parameter :: n = 64
  integer, parameter :: np = 4
  integer as(1:n, 1:n)
  integer ar(1:n, 1:n)
  integer i, j, ierr, me, checksum
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do j = 1, n
    do i = 1, n
      as(i, j) = me*3 + i + j*10 + mod(i*j, 17)
    enddo
  enddo
  call mpi_alltoall(as, n*n/np, mpi_integer, ar, n*n/np, mpi_integer, mpi_comm_world, ierr)
  checksum = ar(1, 1) + ar(n, n)
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program swapk
`

// BenchmarkAblation_NodeLoopOuter (A4): subset-send fallback vs forced
// interchange when the node loop is outermost (§3.5's efficiency
// discussion).
func BenchmarkAblation_NodeLoopOuter(b *testing.B) {
	subset := transform(b, interchangeKernel, plan.Decision{K: 4, Interchange: plan.InterchangeOff})
	inter := transform(b, interchangeKernel, plan.Decision{K: 4, InterchangeMinBlockBytes: 1})
	for variant, text := range map[string]string{"subset-send": subset, "interchange": inter} {
		b.Run(variant, func(b *testing.B) {
			var total netsim.Time
			for i := 0; i < b.N; i++ {
				total += simulate(b, text, 4, gmWith(nil))
			}
			b.ReportMetric(float64(total)/float64(b.N)/1e6, "vms/op")
		})
	}
}

// BenchmarkAblation_CopyElim (A5): the indirect pattern's copy elimination —
// original (with copy loop) vs prepush (copy removed, At sent directly).
func BenchmarkAblation_CopyElim(b *testing.B) {
	src := workload.IndirectSource(workload.IndirectParams{N: 16, NP: 4, Weight: 1})
	pre := transform(b, src, plan.Decision{K: 2})
	for variant, text := range map[string]string{"orig-with-copy": src, "pre-no-copy": pre} {
		b.Run(variant, func(b *testing.B) {
			var total netsim.Time
			for i := 0; i < b.N; i++ {
				total += simulate(b, text, 4, gmWith(nil))
			}
			b.ReportMetric(float64(total)/float64(b.N)/1e6, "vms/op")
		})
	}
}

// BenchmarkAblation_Offload (A6): how much NIC autonomy buys — the GM
// profile with offload artificially disabled vs enabled, prepush code.
func BenchmarkAblation_Offload(b *testing.B) {
	src, costs := ablationKernel()
	pre := transform(b, src, plan.Decision{K: 8})
	for _, offload := range []bool{false, true} {
		m := gmWith(costs)
		m.Profile.Offload = offload
		m.Profile.EagerThreshold = 1024 // keep tile messages on the rendezvous path
		b.Run(fmt.Sprintf("offload=%v", offload), func(b *testing.B) {
			var total netsim.Time
			for i := 0; i < b.N; i++ {
				total += simulate(b, pre, 4, m)
			}
			b.ReportMetric(float64(total)/float64(b.N)/1e6, "vms/op")
		})
	}
}

// BenchmarkAblation_WaitSchedule (A7): the paper's literal per-tile wait
// (§3.6 step 2) vs the deferred-drain schedule this implementation defaults
// to; the per-tile wait stalls a tile's owner behind the incast when
// compute per tile is small (§3.5's congestion caveat made measurable).
func BenchmarkAblation_WaitSchedule(b *testing.B) {
	src, costs := ablationKernel()
	perTile := transform(b, src, plan.Decision{K: 8, Wait: plan.WaitPerTile})
	deferred := transform(b, src, plan.Decision{K: 8})
	for variant, text := range map[string]string{"per-tile-wait": perTile, "deferred-drain": deferred} {
		b.Run(variant, func(b *testing.B) {
			var total netsim.Time
			for i := 0; i < b.N; i++ {
				total += simulate(b, text, 4, gmWith(costs))
			}
			b.ReportMetric(float64(total)/float64(b.N)/1e6, "vms/op")
		})
	}
}
