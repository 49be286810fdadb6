package exec_test

import (
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

// recordedUnder compiles src into a private store and makes its first — the
// recording — execution under machine m.
func recordedUnder(t *testing.T, label, src string, np int, m plan.Machine) (exec.Runner, *interp.Result) {
	t.Helper()
	r := exec.Runner{Store: exec.NewMemStore()}
	res, err := r.Run(src, np, m.Costs, m.Profile)
	if err != nil {
		t.Fatalf("%s: recording run under %s: %v", label, m.Name, err)
	}
	return r, res
}

// requireReplaysEverywhere is the equivalence proof for one program: full
// executions under every machine are the reference; then for each machine a
// fresh compile records under it and must replay — not re-execute — to the
// reference under every machine, itself included. Recording under each
// machine in turn is also the pricing property: a skeleton recorded under
// any machine prices identically under any other.
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
	for ri, rm := range machines {
		r, first := recordedUnder(t, label, src, np, rm)
		requireBitIdentical(t, fmt.Sprintf("%s: recording run under %s", label, rm.Name), ref[ri], first)
		for i, m := range machines {
			res, full, err := r.Measure(src, np, m.Costs, m.Profile)
			if err != nil {
				t.Fatalf("%s: recorded under %s, measured under %s: %v", label, rm.Name, m.Name, err)
			}
			if full == nil {
				t.Fatalf("%s: recorded under %s, measured under %s: executed in full, want a replay", label, rm.Name, m.Name)
			}
			requireReplayIsRun(t, fmt.Sprintf("%s: recorded under %s, replayed under %s", label, rm.Name, m.Name), ref[i], res)
		}
	}
}

// TestReplayEqualsRunCorpus covers the 240 oracle_pin configurations — the
// corpus' originals and fixed-K variants under the three sweep machines —
// each recorded under one machine and replayed under all three.
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

// TestNeverSkeletonised: a run whose data or observables can depend on the
// machine leaves no skeleton, so measuring it executes in full — the same
// answer, error included, as Run.
func TestNeverSkeletonised(t *testing.T) {
	late, err := os.ReadFile(filepath.Join("..", "interp", "testdata", "late_receive.f90"))
	if err != nil {
		t.Fatal(err)
	}
	ring := func(recvTag, extra string) string {
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
	cases := []struct {
		name, src string
		fails     bool
	}{
		{"reads mpi_wtime", ring("5", "  t0 = mpi_wtime()"), false},
		{"any-tag receive", ring("-1", ""), false},
		{"unwaited request", string(late), false},
		{"failing run", ring("5", "  b(1) = b(9)"), true},
		{"deadlocked run", wrap(`  integer b(1:4)`, `
  call mpi_recv(b, 4, mpi_integer, 1 - me, 5, mpi_comm_world, mpi_status_ignore, ierr)`), true},
		{"character program", wrap(`  character(len=2) c`, `
  c = 'ok'
  print *, c`), false},
	}
	for _, tc := range cases {
		for _, m := range plan.PaperPair() {
			label := tc.name + "/" + m.Name
			r := exec.Runner{Store: exec.NewMemStore()}
			first, ferr := r.Run(tc.src, 2, m.Costs, m.Profile)
			if (ferr != nil) != tc.fails {
				t.Fatalf("%s: first run: err = %v, want failure = %v", label, ferr, tc.fails)
			}
			res, full, err := r.Measure(tc.src, 2, m.Costs, m.Profile)
			if full != nil {
				t.Fatalf("%s: measured by replay, want a full execution", label)
			}
			if tc.fails {
				if err == nil || err.Error() != ferr.Error() {
					t.Fatalf("%s: measure failed with %v, run with %v", label, err, ferr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: measure: %v", label, err)
			}
			requireReplayIsRun(t, label, first, res)
		}
	}
	// The control: the same ring without a fenced construct does replay.
	requireReplaysEverywhere(t, "plain ring", ring("5", ""), 2, plan.PaperPair())
}

// TestConcurrentFirstRuns: of several goroutines first-running one Program
// at once, one records and the others execute in full; nobody waits for the
// recording, every result is the same, and the skeleton is there afterwards.
// Meaningful under -race.
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
					results[g], _, err = r.Measure(sc.Source, sc.NP, m.Costs, m.Profile)
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
		res, full, err := r.Measure(sc.Source, sc.NP, m.Costs, m.Profile)
		if err != nil || full == nil {
			t.Fatalf("round %d: after the first runs: replayed = %v, err = %v", round, full != nil, err)
		}
		requireReplayIsRun(t, fmt.Sprintf("round %d replay", round), results[0], res)
	}
}
