package exec_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/workload"
)

// requireReplayIsRun asserts that a replay answers exactly what the full
// execution of the same program under the same machine does: makespan,
// traffic, every rank's finish/compute/blocked, output lines and arrays.
func requireReplayIsRun(t *testing.T, label string, full, replay *interp.Result) {
	t.Helper()
	requireBitIdentical(t, label, full, replay)
	if !reflect.DeepEqual(full.OutputLines(), replay.OutputLines()) {
		t.Fatalf("%s: output lines differ", label)
	}
}

// recordedUnder compiles src into a private store and makes its first
// measurement — the recording execution, drawing its memory from rc — under
// machine m.
func recordedUnder(t *testing.T, label, src string, np int, m plan.Machine, rc *interp.Recycler) (exec.Runner, *interp.Result) {
	t.Helper()
	r := exec.Runner{Store: exec.NewMemStore(), Recycler: rc}
	res, replayed, err := r.Measure(context.Background(), src, np, m.Costs, m.Profile)
	if err != nil {
		t.Fatalf("%s: recording measurement under %s: %v", label, m.Name, err)
	}
	if replayed {
		t.Fatalf("%s: first measurement under %s replayed, want the recording execution", label, m.Name)
	}
	return r, res
}

// requireReplaysEverywhere is the equivalence proof for one program: full
// executions under every machine are the reference; then for each machine a
// fresh compile records under it and must replay — not re-execute — to the
// reference under every machine, itself included. Recording under each
// machine in turn is also the pricing property: a skeleton recorded under
// any machine prices identically under any other. The recordings share one
// recycler, and a measurement has one answer shape: the recording and the
// replay under its own machine answer reflect.DeepEqual arrays (digests) and
// output.
func requireReplaysEverywhere(t *testing.T, label, src string, np int, machines []plan.Machine) {
	t.Helper()
	ref := make([]*interp.Result, len(machines))
	p, err := exec.CompileSource(src)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i, m := range machines {
		if ref[i], err = p.RunBytecode(np, m.Profile, m.Costs); err != nil {
			t.Fatalf("%s: full run under %s: %v", label, m.Name, err)
		}
	}
	rc := new(interp.Recycler)
	for ri, rm := range machines {
		r, first := recordedUnder(t, label, src, np, rm, rc)
		requireBitIdentical(t, fmt.Sprintf("%s: recording run under %s", label, rm.Name), ref[ri], first)
		for i, m := range machines {
			res, replayed, err := r.Measure(context.Background(), src, np, m.Costs, m.Profile)
			if err != nil {
				t.Fatalf("%s: recorded under %s, measured under %s: %v", label, rm.Name, m.Name, err)
			}
			if !replayed {
				t.Fatalf("%s: recorded under %s, measured under %s: executed in full, want a replay", label, rm.Name, m.Name)
			}
			requireReplayIsRun(t, fmt.Sprintf("%s: recorded under %s, replayed under %s", label, rm.Name, m.Name), ref[i], res)
			if i == ri && (!reflect.DeepEqual(first.Arrays, res.Arrays) || !reflect.DeepEqual(first.Output, res.Output)) {
				t.Fatalf("%s: under %s the recording and its replay answer different arrays or output", label, m.Name)
			}
		}
	}
}

// requireWalkReplaysEverywhere is the walk arm of the proof, and the engine
// differential with it: the walk records src under each machine in turn, the
// bytecode VM's run under that machine must be bit-identical to the walk's
// and leave the identical skeleton, and each skeleton replayed under every
// machine must equal the walk's execution there.
func requireWalkReplaysEverywhere(t *testing.T, label, src string, np int, machines []plan.Machine) {
	t.Helper()
	walk := make([]*interp.Result, len(machines))
	skels := make([]*interp.Skeleton, len(machines))
	for i, m := range machines {
		var err error
		walk[i], skels[i], err = exec.Runner{Engine: exec.EngineWalk}.Record(src, np, m.Costs, m.Profile)
		if err != nil {
			t.Fatalf("%s: walk under %s: %v", label, m.Name, err)
		}
		if skels[i] == nil {
			t.Fatalf("%s: the walk under %s recorded no skeleton", label, m.Name)
		}
		vm, vmSkel, err := exec.Runner{}.Record(src, np, m.Costs, m.Profile)
		if err != nil {
			t.Fatalf("%s: bytecode under %s: %v", label, m.Name, err)
		}
		requireBitIdentical(t, fmt.Sprintf("%s/%s", label, m.Name), walk[i], vm)
		if !reflect.DeepEqual(skels[i], vmSkel) {
			t.Fatalf("%s: walk and bytecode record different skeletons under %s", label, m.Name)
		}
	}
	for ri, rm := range machines {
		for i, m := range machines {
			res, err := skels[ri].Replay(m.Profile, m.Costs)
			if err != nil {
				t.Fatalf("%s: walk-recorded under %s, replayed under %s: %v", label, rm.Name, m.Name, err)
			}
			requireReplayIsRun(t, fmt.Sprintf("%s: walk-recorded under %s, replayed under %s", label, rm.Name, m.Name), walk[i], res)
		}
	}
}

// TestReplayEqualsRunCorpus covers the 240 oracle_pin configurations — the
// corpus' originals and fixed-K variants under the three sweep machines —
// each recorded under one machine and replayed under all three (the walk
// arm over the same configurations is TestCorpusBitIdentical).
func TestReplayEqualsRunCorpus(t *testing.T) {
	scenarios := workload.GenerateScenarios(workload.GenOptions{})
	if testing.Short() {
		scenarios = scenarios[:9] // one of each family
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			transformed, rep, err := core.Apply(prog, plan.Uniform(plan.Decision{K: sc.K}))
			if err != nil || rep.TransformedCount() == 0 {
				t.Fatalf("apply: %v (%s)", err, rep.FirstRejection())
			}
			machines := plan.DefaultSweep()
			for i := range machines {
				if sc.Costs != nil {
					machines[i].Costs = *sc.Costs
				}
			}
			for vi, src := range []string{sc.Source, transformed} {
				requireReplaysEverywhere(t, fmt.Sprintf("%s/variant%d", sc.Name, vi), src, sc.NP, machines)
			}
		})
	}
}

// TestReplayEqualsRunRandomKernels covers the 200 generated kernels (mixed
// kinds, control flow, subroutines, rings of point-to-point messages) under
// the paper's two machines.
func TestReplayEqualsRunRandomKernels(t *testing.T) {
	count := randomKernels
	if testing.Short() {
		count = 20
	}
	for i := 0; i < count; i++ {
		requireReplaysEverywhere(t, fmt.Sprintf("kernel %d", i), randomKernel(i), 2, plan.PaperPair())
	}
}

// ring is a two-rank exchange: an isend, a receive with the given tag (-1 is
// any tag), the wait, then extra.
func ring(recvTag, extra string) string {
	return wrap(`  integer a(1:4), b(1:4)
  integer req
  real t0`, `
  a(1) = me
  call mpi_isend(a, 4, mpi_integer, 1 - me, 5, mpi_comm_world, req, ierr)
  call mpi_recv(b, 4, mpi_integer, 1 - me, `+recvTag+`, mpi_comm_world, mpi_status_ignore, ierr)
  call mpi_wait(req, mpi_status_ignore, ierr)
`+extra+`
  print *, b(1)`)
}

// TestNeverSkeletonised: a run whose data or observables can depend on the
// machine leaves no skeleton, so every measurement of it executes in full —
// the same answer, error included, as Run. The character program is the
// control: the walker runs it, records it once and replays it.
func TestNeverSkeletonised(t *testing.T) {
	late, err := os.ReadFile(filepath.Join("..", "interp", "testdata", "late_receive.f90"))
	if err != nil {
		t.Fatal(err)
	}
	// A character program is not fenced: RunBytecode runs the walker on it,
	// its measurements record and replay the walk's skeleton, and Record,
	// under either engine, records its walk.
	cases := []struct {
		name, src      string
		fails, records bool
	}{
		{"reads mpi_wtime", ring("5", "  t0 = mpi_wtime()"), false, false},
		{"any-tag receive", ring("-1", ""), false, false},
		{"unwaited request", string(late), false, false},
		{"failing run", ring("5", "  b(1) = b(9)"), true, false},
		{"deadlocked run", wrap(`  integer b(1:4)`, `
  call mpi_recv(b, 4, mpi_integer, 1 - me, 5, mpi_comm_world, mpi_status_ignore, ierr)`), true, false},
		{"character program", wrap(`  character(len=2) c`, `
  c = 'ok'
  print *, c`), false, true},
	}
	for _, tc := range cases {
		if tc.records {
			requireWalkReplaysEverywhere(t, tc.name, tc.src, 2, plan.PaperPair())
		}
		for _, m := range plan.PaperPair() {
			label := tc.name + "/" + m.Name
			r := exec.Runner{Store: exec.NewMemStore()}
			first, ferr := r.Run(tc.src, 2, m.Costs, m.Profile)
			if (ferr != nil) != tc.fails {
				t.Fatalf("%s: first run: err = %v, want failure = %v", label, ferr, tc.fails)
			}
			for i := 0; i < 2; i++ { // the recording measurement, then one after it
				res, replayed, err := r.Measure(context.Background(), tc.src, 2, m.Costs, m.Profile)
				if want := tc.records && i == 1; replayed != want {
					t.Fatalf("%s: measurement %d: replayed = %v, want %v", label, i, replayed, want)
				}
				if tc.fails {
					if err == nil || err.Error() != ferr.Error() {
						t.Fatalf("%s: measurement %d failed with %v, run with %v", label, i, err, ferr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: measurement %d: %v", label, i, err)
				}
				requireReplayIsRun(t, label, first, res)
			}
			if tc.fails {
				continue
			}
			for _, eng := range []exec.Engine{exec.EngineWalk, exec.EngineBytecode} {
				if _, skel, _ := (exec.Runner{Engine: eng}).Record(tc.src, 2, m.Costs, m.Profile); skel != nil && !tc.records {
					t.Fatalf("%s: Record on %s left a skeleton", label, eng)
				}
			}
		}
	}
	// The control: the same ring without a fenced construct does replay.
	requireReplaysEverywhere(t, "plain ring", ring("5", ""), 2, plan.PaperPair())
	requireWalkReplaysEverywhere(t, "plain ring", ring("5", ""), 2, plan.PaperPair())
}

// capKernel is a program of np ranks in which rank 0 sends rank 1 n
// one-element messages, the i-th tagged tag, and the others idle.
func capKernel(n int, tag string) string {
	return wrap(`  integer s(1:1), r(1:1), i`, fmt.Sprintf(`
  if (me == 0) then
    do i = 1, %d
      call mpi_send(s, 1, mpi_integer, 1, %s, mpi_comm_world, ierr)
    enddo
  endif
  if (me == 1) then
    do i = 1, %[1]d
      call mpi_recv(r, 1, mpi_integer, 0, %[2]s, mpi_comm_world, mpi_status_ignore, ierr)
    enddo
  endif`, n, tag))
}

// TestSkeletonCapCountsStoredEntries: the skeleton cap bounds the entries a
// recording stores, not the operations they stand for. At 64 ranks a rank
// may store 2^20/64 = 16,384 entries, and ranks 0 and 1 issue 20,000
// operations each. With a tag that goes up by one per message they fold
// into one run: the program records, and its replay is its execution under
// every machine. With a tag that follows no stride (i² mod 9973 has no
// constant difference at any period up to the fold's longest) every one is
// stored: the recording is fenced, and every measurement executes.
func TestSkeletonCapCountsStoredEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("20,000 messages per run")
	}
	const np, n = 64, 20000
	requireReplaysEverywhere(t, "strided messages past the cap", capKernel(n, "i"), np, plan.Builtin())
	spill := capKernel(n, "mod(i * i, 9973)")
	for _, m := range plan.Builtin() {
		r := exec.Runner{Store: exec.NewMemStore()}
		ref, err := r.Run(spill, np, m.Costs, m.Profile)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			res, replayed, err := r.Measure(context.Background(), spill, np, m.Costs, m.Profile)
			if err != nil {
				t.Fatal(err)
			}
			if replayed {
				t.Fatalf("under %s: measurement %d of a recording past the cap replayed", m.Name, i)
			}
			requireReplayIsRun(t, fmt.Sprintf("unstrided messages past the cap, measured under %s", m.Name), ref, res)
		}
	}
}

// TestConcurrentFirstRuns: of several goroutines running or measuring one
// Program at once, the first measurement records; a run executes in full and
// never waits, a measurement that finds the recording under way waits for it
// and replays. Every result is the same, and the skeleton is there
// afterwards. Meaningful under -race.
func TestConcurrentFirstRuns(t *testing.T) {
	sc := workload.GenerateScenarios(workload.GenOptions{})[0]
	m := plan.MPICHGM2005()
	for round := 0; round < 4; round++ {
		r := exec.Runner{Store: exec.NewMemStore()}
		const n = 4
		results := make([]*interp.Result, n)
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var err error
				if g%2 == 0 {
					results[g], err = r.Run(sc.Source, sc.NP, m.Costs, m.Profile)
				} else {
					results[g], _, err = r.Measure(context.Background(), sc.Source, sc.NP, m.Costs, m.Profile)
				}
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for g := 1; g < n; g++ {
			requireReplayIsRun(t, fmt.Sprintf("round %d goroutine %d", round, g), results[0], results[g])
		}
		res, replayed, err := r.Measure(context.Background(), sc.Source, sc.NP, m.Costs, m.Profile)
		if err != nil || !replayed {
			t.Fatalf("round %d: after the first runs: replayed = %v, err = %v", round, replayed, err)
		}
		requireReplayIsRun(t, fmt.Sprintf("round %d replay", round), results[0], res)
	}
}

// TestRunRecordsNothing: running a Program leaves no skeleton on it, so the
// first measurement after any number of runs is the recording execution and
// only the second replays.
func TestRunRecordsNothing(t *testing.T) {
	sc := workload.GenerateScenarios(workload.GenOptions{})[0]
	m := plan.MPICHGM2005()
	r := exec.Runner{Store: exec.NewMemStore()}
	ran, err := r.Run(sc.Source, sc.NP, m.Costs, m.Profile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(sc.Source, sc.NP, m.Costs, m.Profile); err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, true} {
		res, replayed, err := r.Measure(context.Background(), sc.Source, sc.NP, m.Costs, m.Profile)
		if err != nil {
			t.Fatalf("measurement %d: %v", i, err)
		}
		if replayed != want {
			t.Fatalf("measurement %d after two runs: replayed = %v, want %v", i, replayed, want)
		}
		requireReplayIsRun(t, fmt.Sprintf("measurement %d", i), ran, res)
	}
}

// TestWalkMeasuresRecordOnce: a stored variant keeps the walk engine's
// skeletons beside the bytecode's. Of several goroutines measuring one
// variant at once on a walk Runner, exactly one executes — the recording —
// and every other waits for it and replays; every answer is the walk's run,
// and the bytecode's first measurement of the same Program still records its
// own. A fenced source executes on every walk measurement, and so does every
// measurement of a walk Runner without a store. Meaningful under -race.
func TestWalkMeasuresRecordOnce(t *testing.T) {
	sc := workload.GenerateScenarios(workload.GenOptions{})[0]
	m := plan.MPICHGM2005()
	walk := exec.Runner{Engine: exec.EngineWalk}
	ran, err := walk.Run(sc.Source, sc.NP, m.Costs, m.Profile)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		store := exec.NewMemStore()
		r := exec.Runner{Engine: exec.EngineWalk, Store: store}
		const n = 6
		results := make([]*interp.Result, n)
		replayed := make([]bool, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				var err error
				if results[g], replayed[g], err = r.Measure(context.Background(), sc.Source, sc.NP, m.Costs, m.Profile); err != nil {
					t.Errorf("round %d goroutine %d: %v", round, g, err)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		executions := 0
		for g, res := range results {
			if !replayed[g] {
				executions++
			}
			requireReplayIsRun(t, fmt.Sprintf("round %d goroutine %d", round, g), ran, res)
		}
		if executions != 1 {
			t.Fatalf("round %d: %d of %d concurrent walk measurements executed, want 1", round, executions, n)
		}
		if st := store.Stats(); st.Compiled != 1 || st.Hits != n-1 {
			t.Fatalf("round %d: the walk drew %d compiles and %d hits from the store, want 1 and %d", round, st.Compiled, st.Hits, n-1)
		}
		if _, rb, err := (exec.Runner{Store: store}).Measure(context.Background(), sc.Source, sc.NP, m.Costs, m.Profile); err != nil || rb {
			t.Fatalf("round %d: the bytecode's first measurement after the walk's: replayed = %v, err = %v; want its own recording", round, rb, err)
		}
	}
	for _, tc := range []struct{ name, src string }{
		{"reads mpi_wtime", ring("5", "  t0 = mpi_wtime()")},
		{"any-tag receive", ring("-1", "")},
	} {
		want, err := walk.Run(tc.src, 2, m.Costs, m.Profile)
		if err != nil {
			t.Fatal(err)
		}
		r := exec.Runner{Engine: exec.EngineWalk, Store: exec.NewMemStore()}
		for i := 0; i < 3; i++ {
			res, replayed, err := r.Measure(context.Background(), tc.src, 2, m.Costs, m.Profile)
			if err != nil || replayed {
				t.Fatalf("%s: walk measurement %d: replayed = %v, err = %v; want an execution", tc.name, i, replayed, err)
			}
			requireReplayIsRun(t, fmt.Sprintf("%s: walk measurement %d", tc.name, i), want, res)
		}
	}
	for i := 0; i < 3; i++ {
		res, replayed, err := walk.Measure(context.Background(), sc.Source, sc.NP, m.Costs, m.Profile)
		if err != nil || replayed {
			t.Fatalf("store-less walk measurement %d: replayed = %v, err = %v; want an execution", i, replayed, err)
		}
		requireReplayIsRun(t, fmt.Sprintf("store-less walk measurement %d", i), ran, res)
	}
}
