package interp_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestRecordingGrowsWithDistinctEvents: an xchg variant recorded at tile
// size K and at K/2, which has twice the tiles, issues twice the operations
// per rank, but stores the same entries to within a small constant: the
// tiles are one strided run.
func TestRecordingGrowsWithDistinctEvents(t *testing.T) {
	var sc *workload.Scenario
	for _, s := range workload.GenerateScenarios(workload.GenOptions{}) {
		if s.Family == "xchg" && strings.HasPrefix(s.Name, "xchg/m32/") {
			sc = &s
			break
		}
	}
	if sc == nil {
		t.Fatal("no xchg scenario")
	}
	prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	record := func(k int64) (stored, logical []int) {
		src, _, err := core.Apply(prog, &plan.Plan{Schema: plan.Schema, Default: plan.Decision{K: k}})
		if err != nil {
			t.Fatal(err)
		}
		p, err := interp.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		m := plan.Builtin()[0]
		_, skel, err := p.Record(sc.NP, m.Profile)
		if err != nil || skel == nil {
			t.Fatalf("K=%d: recording %v, err %v", k, skel, err)
		}
		return skel.Entries()
	}
	const k = 4 // four tiles; K/2 has eight
	sK, lK := record(k)
	sH, lH := record(k / 2)
	t.Logf("%s: K=%d stores %v of %v entries per rank, K=%d %v of %v", sc.Name, k, sK, lK, k/2, sH, lH)
	for r := range lK {
		if lH[r] < 2*lK[r]-2 {
			t.Errorf("rank %d: %d operations at K=%d, %d at K=%d: the tiles did not double", r, lK[r], k, lH[r], k/2)
		}
		if d := sH[r] - sK[r]; d < -4 || d > 4 {
			t.Errorf("rank %d: %d entries stored at K=%d, %d at K=%d: the store grows with the tiles", r, sK[r], k, sH[r], k/2)
		}
	}
}
