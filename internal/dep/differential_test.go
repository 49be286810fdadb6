package dep_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/plan"
	"repro/internal/verify"
	"repro/internal/workload"
)

// knobPlans is the six uniform plans of verify's clean sweep (and of the
// variant-build benchmark): the fixed decision, every wait / send-order /
// interchange knob, and skip.
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

type program struct {
	name string
	src  string
	k    int64
}

// randomKernels renders n kernels of every generated family with random
// sizes, rank counts, weights, salts and tile sizes.
func randomKernels(n int) []program {
	r := rand.New(rand.NewSource(3003))
	var out []program
	for i := 0; i < n; i++ {
		np := []int{2, 4, 8}[r.Intn(3)]
		w, salt := r.Intn(3), r.Int63n(1<<20)
		var src string
		switch i % 9 {
		case 0:
			src = workload.DirectSource(workload.DirectParams{NX: np * (1 + r.Intn(8)), Outer: 1 + r.Intn(3), NP: np, Weight: w, Salt: salt})
		case 1, 2:
			p := workload.Inner3DParams{M: 1 + r.Intn(6), NY: 2 + r.Intn(12), SZ: np * (1 + r.Intn(3)), NP: np, Weight: w, Salt: salt}
			src = workload.Inner3DSource(p)
			if i%9 == 2 {
				src = workload.ShiftedInner3DSource(p)
			}
		case 3:
			src = workload.IndirectSource(workload.IndirectParams{N: np * (1 + r.Intn(2)), NP: np, Weight: w, Salt: salt})
		case 4:
			src = workload.FFTSource(workload.FFTParams{M: 1 + r.Intn(6), Rows: 1 + r.Intn(8), SZ: np * (1 + r.Intn(3)), NP: np, Weight: w, Salt: salt})
		case 5:
			src = workload.LUSource(workload.LUParams{N: np * (1 + r.Intn(4)), NP: np, Weight: w, Salt: salt})
		case 6:
			src = workload.SortSource(workload.SortParams{NX: np * (1 + r.Intn(8)), NP: np, Weight: w, Salt: salt})
		case 7:
			src = workload.XchgSource(workload.XchgParams{M: 1 + r.Intn(5), NY: 1 + r.Intn(6), NZ: np * (1 + r.Intn(3)), NP: np, Weight: w, Salt: salt})
		default:
			src = workload.MultiSource(workload.MultiParams{NX: np * (1 + r.Intn(6)), M: 1 + r.Intn(4), NY: 1 + r.Intn(6), SZ: np * (1 + r.Intn(2)), NX3: np * r.Intn(3), NP: np, Weight: w, Salt: salt})
		}
		out = append(out, program{name: "random", src: src, k: int64(1 + r.Intn(4))})
	}
	return out
}

// TestPairQueriesMatchReference records every pair query the front end
// makes — core.Analyze, core.Apply under the six knob plans and
// verify.Variant, over the corpus, the golden fixtures and random kernels —
// and requires the row solver's answer to equal the reference solver's on
// each. The reference wraps where the rows refuse a magnitude past
// coefLimit; no recorded query comes near it, so there is no exception.
func TestPairQueriesMatchReference(t *testing.T) {
	var progs []program
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		progs = append(progs, program{name: sc.Name, src: sc.Source, k: sc.K})
	}
	fixtures, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.f90"))
	for _, f := range fixtures {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{name: f, src: string(b), k: 4})
	}
	n := 200
	if testing.Short() {
		n = 40
	}
	progs = append(progs, randomKernels(n)...)

	var mu sync.Mutex
	queries, differ := 0, 0
	restore := dep.ObservePairs(func(r1, r2 *dep.Ref, dirs []dep.Direction, got dep.Feasibility) {
		want := dep.ReferenceTestDirection(r1, r2, dirs)
		mu.Lock()
		defer mu.Unlock()
		queries++
		if got != want {
			differ++
			if differ <= 5 {
				t.Errorf("%s%v -> %s%v under %v: rows %v, reference %v", r1.Array, r1.Subs, r2.Array, r2.Subs, dirs, got, want)
			}
		}
	})
	defer restore()

	analyzed := 0
	for _, p := range progs {
		prog, err := core.Analyze(p.src, core.AnalyzeOptions{})
		if err != nil {
			continue
		}
		analyzed++
		for _, pl := range knobPlans(p.k) {
			out, rep, err := core.Apply(prog, pl)
			if err != nil {
				continue
			}
			verify.Variant(prog, pl, out, rep)
		}
	}
	t.Logf("%d programs analyzed, %d pair queries, %d differ", analyzed, queries, differ)
	if analyzed < len(progs)/2 || queries < 10*analyzed {
		t.Fatalf("only %d of %d programs analyzed with %d queries: the recording misses the front end", analyzed, len(progs), queries)
	}
}
