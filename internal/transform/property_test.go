package transform_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/interp"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestQuickRandomKernelsEquivalent is the repository's strongest
// correctness property: for random kernel shapes, sizes, tile sizes and
// rank counts, the transformed program produces byte-identical observable
// results to the original under both network stacks. Any soundness bug in
// the dependence analysis, region analysis, code generation, runtime or
// interpreter shows up here as an output diff.
func TestQuickRandomKernelsEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(481))
	check := func() bool {
		np := []int{2, 4}[r.Intn(2)]
		var src string
		var k int64
		switch r.Intn(3) {
		case 0: // direct 1-D (Fig. 2a); K must divide psz = NX/np
			nx := np * 4 * (1 + r.Intn(4)) // psz = 4..16
			psz := nx / np
			divisors := divisorsOf(int64(psz))
			k = divisors[r.Intn(len(divisors))]
			src = workload.DirectSource(workload.DirectParams{
				NX: nx, Outer: 1 + r.Intn(3), NP: np, Weight: r.Intn(2),
			})
		case 1: // inner-node-loop 3-D; any K (leftover path exercised)
			k = int64(1 + r.Intn(10))
			src = workload.Inner3DSource(workload.Inner3DParams{
				M:  1 + r.Intn(6),
				NY: 4 + r.Intn(12),
				SZ: np * (1 + r.Intn(2)),
				NP: np, Weight: r.Intn(2),
			})
		default: // indirect (Fig. 3a); K must divide psz = N/np
			n := np * (1 + r.Intn(2)) // N = np or 2np
			psz := n / np
			divisors := divisorsOf(int64(psz))
			k = divisors[r.Intn(len(divisors))]
			src = workload.IndirectSource(workload.IndirectParams{
				N: n, NP: np, Weight: r.Intn(2),
			})
		}

		out, rep, err := transform(src, 0, plan.Decision{K: k})
		if err != nil {
			t.Logf("transform error (np=%d K=%d): %v\n%s", np, k, err, src)
			return false
		}
		if rep.TransformedCount() != 1 {
			t.Logf("did not transform (np=%d K=%d):\n%s\n%s", np, k, rep, src)
			return false
		}
		for _, prof := range []netsim.Profile{netsim.MPICHGM(), netsim.MPICHTCP()} {
			po, err := interp.Load(src)
			if err != nil {
				t.Logf("load orig: %v", err)
				return false
			}
			ro, err := po.Run(np, prof)
			if err != nil {
				t.Logf("run orig: %v", err)
				return false
			}
			pt, err := interp.Load(out)
			if err != nil {
				t.Logf("load pre: %v\n%s", err, out)
				return false
			}
			rt, err := pt.Run(np, prof)
			if err != nil {
				t.Logf("run pre (np=%d K=%d, %s): %v\n%s", np, k, prof, err, out)
				return false
			}
			if same, why := interp.SameObservable(ro, rt, "ar"); !same {
				t.Logf("MISMATCH np=%d K=%d %s: %s\n--- source:\n%s\n--- transformed:\n%s",
					np, k, prof, why, src, out)
				return false
			}
		}
		return true
	}
	n := 60
	if testing.Short() {
		n = 12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

func divisorsOf(n int64) []int64 {
	var out []int64
	for d := int64(1); d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}
