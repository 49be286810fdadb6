package exec_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestRecycledMeasurementsMatchFreshRuns measures the generated kernels —
// all of one shape: the same arrays, the same messages — in sequence through
// one recycler, so each execution runs in the storage and payloads of the
// ones before it, on the paper machines in turn. Every answer's digests,
// output and timing must equal the walk's and a store-less bytecode run's,
// which allocate afresh: no element of an earlier kernel survives reuse.
func TestRecycledMeasurementsMatchFreshRuns(t *testing.T) {
	count := randomKernels
	if testing.Short() {
		count = 20
	}
	rc := new(interp.Recycler)
	for i := 0; i < count; i++ {
		src := randomKernel(i)
		for _, m := range plan.PaperPair()[i%2 : i%2+1] {
			label := fmt.Sprintf("kernel %d/%s", i, m.Name)
			walk, err := exec.Runner{Engine: exec.EngineWalk}.Run(src, 2, m.Costs, m.Profile)
			if err != nil {
				t.Fatalf("%s: walk: %v", label, err)
			}
			fresh, err := exec.Runner{}.Run(src, 2, m.Costs, m.Profile)
			if err != nil {
				t.Fatalf("%s: store-less run: %v", label, err)
			}
			res, replayed, err := exec.Runner{Recycler: rc}.Measure(context.Background(), src, 2, m.Costs, m.Profile)
			if err != nil || replayed {
				t.Fatalf("%s: recycled measurement: replayed = %v, err = %v; want an execution", label, replayed, err)
			}
			for r, arrs := range res.Arrays {
				for name, data := range arrs {
					if _, ok := data.(interp.ArrayDigest); !ok {
						t.Fatalf("%s: rank %d array %s answered %T, want its digest", label, r, name, data)
					}
				}
			}
			requireBitIdentical(t, label+": walk vs recycled", walk, res)
			requireBitIdentical(t, label+": fresh vs recycled", fresh, res)
		}
	}
}

// TestSameShapeMeasurementRecyclesItsMemory is an allocation gate: of two
// variants of one exchange kernel (the same arrays, other tile sizes),
// compiled and lowered beforehand, the second recording measurement through
// the recycler of the first allocates at most half the bytes the first did —
// it draws every array, and the payloads the first placed, from it. What
// remains is the recording itself. Measured when the gate was set: 6.0 MB,
// then 2.2 MB.
func TestSameShapeMeasurementRecyclesItsMemory(t *testing.T) {
	var sc workload.Scenario
	for _, s := range workload.GenerateScenarios(workload.GenOptions{}) {
		if s.Family == "xchg" {
			sc = s
			break
		}
	}
	if sc.Source == "" {
		t.Fatal("no xchg scenario in the corpus")
	}
	prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := exec.Runner{Store: exec.NewMemStore(), Recycler: new(interp.Recycler)}
	var srcs []string
	for _, k := range []int64{sc.K, 2 * sc.K} {
		src, rep, err := core.Apply(prog, plan.Uniform(plan.Decision{K: k}))
		if err != nil || rep.TransformedCount() == 0 {
			t.Fatalf("K=%d: %v (%s)", k, err, rep.FirstRejection())
		}
		p, err := r.Store.Get(src)
		if err != nil {
			t.Fatal(err)
		}
		p.Bytecode()
		srcs = append(srcs, src)
	}
	m := plan.MPICHGM2005()
	var bytes [2]uint64
	for i, src := range srcs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, replayed, err := r.Measure(context.Background(), src, sc.NP, m.Costs, m.Profile)
		runtime.ReadMemStats(&after)
		if err != nil || replayed {
			t.Fatalf("variant %d: replayed = %v, err = %v; want the recording execution", i, replayed, err)
		}
		bytes[i] = after.TotalAlloc - before.TotalAlloc
	}
	t.Logf("%s: first measurement %d B, second %d B", sc.Name, bytes[0], bytes[1])
	if bytes[1] > bytes[0]/2 {
		t.Fatalf("the second same-shape measurement allocated %d B, over half the first's %d B", bytes[1], bytes[0])
	}
}
