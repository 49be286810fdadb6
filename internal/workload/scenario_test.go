package workload_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ftn"
	"repro/internal/harness"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestFigure1ShapeHolds pins the paper's Figure 1 on the road that now
// produces it — workload.Figure1 swept by harness.Run: the four makespans
// bit-equal to what the first-generation Compare road measured, and the
// paper's ordering among them.
func TestFigure1ShapeHolds(t *testing.T) {
	rows, err := harness.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Profile != "mpich-tcp-2005" || rows[1].Profile != "mpich-gm-2005" {
		t.Fatalf("rows = %+v, want one per paper stack", rows)
	}
	tcp, gm := rows[0], rows[1]
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"tcp original", tcp.OriginalNs, 5081746},
		{"tcp prepush", tcp.PrepushNs, 4605588},
		{"gm original", gm.OriginalNs, 3193786},
		{"gm prepush", gm.PrepushNs, 2842413},
	} {
		if c.got != c.want {
			t.Errorf("%s makespan = %d ns, want %d", c.what, c.got, c.want)
		}
	}
	// The paper's ordering: prepush beats original on both stacks, and the
	// offload stack is fastest overall — even its original beats TCP's
	// prepush.
	if tcp.PrepushNs >= tcp.OriginalNs {
		t.Errorf("tcp prepush (%d) not better than original (%d)", tcp.PrepushNs, tcp.OriginalNs)
	}
	if gm.PrepushNs >= gm.OriginalNs {
		t.Errorf("gm prepush (%d) not better than original (%d)", gm.PrepushNs, gm.OriginalNs)
	}
	if gm.OriginalNs >= tcp.PrepushNs {
		t.Errorf("gm original (%d) should beat tcp prepush (%d)", gm.OriginalNs, tcp.PrepushNs)
	}
}

// TestEveryCorpusScenarioTransforms: each generated kernel must parse and
// the Compuniformer must fire on every site the scenario declares — a
// scenario whose transformation silently no-ops (or drops one of its
// exchanges) would make the differential sweep vacuous. (Execution itself
// is covered by internal/harness.)
func TestEveryCorpusScenarioTransforms(t *testing.T) {
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			want := sc.Sites
			if want == 0 {
				want = 1
			}
			prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			out, rep, err := core.Apply(prog, plan.Uniform(plan.Decision{K: sc.K}))
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			if rep.TransformedCount() != want {
				t.Fatalf("transformed %d sites, want %d: %s", rep.TransformedCount(), want, rep.FirstRejection())
			}
			if strings.Contains(out, "call mpi_alltoall") {
				t.Error("original alltoall survived the transformation")
			}
			// The rewritten source must stay inside the parseable subset.
			if _, err := ftn.Parse(out); err != nil {
				t.Fatalf("transformed source does not re-parse: %v", err)
			}
		})
	}
}

// TestScenarioRegimeClassification pins the eager/rendezvous split against
// the profiles' 16 KiB threshold.
func TestScenarioRegimeClassification(t *testing.T) {
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		want := "eager"
		if sc.PairBytes > 16*1024 {
			want = "rendezvous"
		}
		if sc.Regime != want {
			t.Errorf("%s: regime %s, want %s (pair %d bytes)", sc.Name, sc.Regime, want, sc.PairBytes)
		}
	}
}

// TestSaltZeroIsCanonical: the Salt parameter must leave the canonical
// kernels byte-identical at 0 — the golden fixtures depend on it.
func TestSaltZeroIsCanonical(t *testing.T) {
	a := workload.DirectSource(workload.DirectParams{NX: 64, Outer: 4, NP: 8})
	b := workload.DirectSource(workload.DirectParams{NX: 64, Outer: 4, NP: 8, Salt: 0})
	if a != b {
		t.Error("DirectSource changed at Salt=0")
	}
	if !strings.Contains(a, "ix*3 + iy*7") {
		t.Error("canonical direct body drifted")
	}
	c := workload.Inner3DSource(workload.Inner3DParams{M: 4, NY: 8, SZ: 4, NP: 2})
	if !strings.Contains(c, "inode*3)*(im - iy)") {
		t.Error("canonical inner3d body drifted")
	}
	d := workload.IndirectSource(workload.IndirectParams{N: 8, NP: 4})
	if !strings.Contains(d, "i*1000 + iy*10 + me") {
		t.Error("canonical indirect body drifted")
	}
}
