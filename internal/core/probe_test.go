package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ftn"
	"repro/internal/plan"
	"repro/internal/workload"
)

// probeSites is how Analyze used to learn each site's facts: replay the most
// permissive uniform plan (K=1 divides every partition; interchange off keeps
// the loop order) and harvest the report. It is kept here as the reference
// the check-only Analyze must reproduce. The report does not carry the
// interchange facts, so they come from a fresh, memo-less analysis of the
// original, as they did from the probe's own analysis.
func probeSites(t *testing.T, p *core.Program) []core.Site {
	t.Helper()
	_, rep, err := core.Apply(p, plan.Uniform(plan.Decision{K: 1, Interchange: plan.InterchangeOff}))
	if err != nil {
		t.Fatal(err)
	}
	ops, _ := analysis.FindOpportunities(ftn.MustParse(p.Source()), analysis.Options{Oracle: p.Options().Oracle, NP: int(p.Options().NP)})
	opAt := map[ftn.Pos]*analysis.Opportunity{}
	for _, op := range ops {
		opAt[op.Call.Stmt.Pos()] = op
	}
	var sites []core.Site
	for _, sr := range rep.Sites {
		site := core.Site{
			Pos: sr.Pos, Pattern: sr.Pattern, NodeCase: sr.NodeCase,
			Transformable: sr.Transformed, Reason: sr.Reason, Notes: sr.Notes,
		}
		if op := opAt[sr.Pos]; op != nil {
			site.InterchangeLegal, site.InterchangeBlockElems = op.InterchangeOK, op.InterchangeBlockElems
		}
		if res := sr.Result; res != nil {
			site.PartitionSize = res.PartitionSize
			if res.TileCount > 0 {
				site.TripCount = res.TileCount*res.K + res.Leftover
			}
			if res.TileMsgElems > 0 && res.K > 0 {
				site.PerIterBytes = res.TileMsgElems * 4 / res.K
			}
		}
		sites = append(sites, site)
	}
	return sites
}

type program struct {
	name string
	src  string
	k    int64
}

// differentialPrograms is the corpus, the testdata/ fixtures and n random
// kernels of every generated family with random sizes, rank counts, weights,
// salts and tile sizes (the generator internal/dep's differential test uses).
func differentialPrograms(t testing.TB, n int) []program {
	var progs []program
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		progs = append(progs, program{name: sc.Name, src: sc.Source, k: sc.K})
	}
	fixtures, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.f90"))
	for _, f := range fixtures {
		progs = append(progs, program{name: filepath.Base(f), src: readTestdata(t, filepath.Base(f)), k: 4})
	}
	r := rand.New(rand.NewSource(3003))
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
		progs = append(progs, program{name: fmt.Sprintf("random/%03d", i), src: src, k: int64(1 + r.Intn(4))})
	}
	return progs
}

// TestAnalyzeMatchesProbe: Analyze's sites — analysis plus transform.Check,
// no rewrite — are exactly what the K=1 probe harvested, over the corpus,
// the fixtures and 200 random kernels.
func TestAnalyzeMatchesProbe(t *testing.T) {
	analyzed, sites := 0, 0
	for _, p := range differentialPrograms(t, 200) {
		prog, err := core.Analyze(p.src, core.AnalyzeOptions{})
		if err != nil {
			continue
		}
		analyzed++
		sites += len(prog.Sites)
		if want := probeSites(t, prog); !reflect.DeepEqual(prog.Sites, want) {
			t.Errorf("%s: Analyze\n%+v\nthe probe\n%+v", p.name, prog.Sites, want)
		}
	}
	t.Logf("%d programs analyzed, %d sites", analyzed, sites)
	if analyzed < 240 {
		t.Fatalf("only %d programs analyzed", analyzed)
	}
}

// renderReport spells out every SiteReport field the pin covers.
func renderReport(rep *core.Report) string {
	if rep == nil {
		return "<nil>"
	}
	var b strings.Builder
	for _, s := range rep.Sites {
		fmt.Fprintf(&b, "%s|%t|%t|%d|%d|%+v|%q|%q|", s.Pos, s.Transformed, s.Skipped, s.Pattern, s.NodeCase, s.Decision, s.Reason, s.Notes)
		if s.Result != nil {
			fmt.Fprintf(&b, "%+v", *s.Result)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestApplyPin holds Apply's sources and reports to testdata/apply_pin.txt:
// one digest per program over variant-build's six knob plans, plus per-site
// divergent plans on the multi-site programs. The pin was written before the
// transformer was split into check and emit; a codegen change that is meant
// shows up here as well as in the goldens. Delete the file and run the test
// to write it afresh.
func TestApplyPin(t *testing.T) {
	var got strings.Builder
	for _, p := range differentialPrograms(t, 200) {
		prog, err := core.Analyze(p.src, core.AnalyzeOptions{})
		if err != nil {
			fmt.Fprintf(&got, "%s\tanalyze: %v\n", p.name, err)
			continue
		}
		plans := knobPlans(p.k)
		if len(prog.Sites) > 1 {
			plans = append(plans, divergentPlans(prog, p.k)...)
		}
		h := sha256.New()
		for _, pl := range plans {
			out, rep, err := core.Apply(prog, pl)
			fmt.Fprintf(h, "%s\x00%v\x00%s\x00%s\x00", pl.Key(), err, out, renderReport(rep))
		}
		fmt.Fprintf(&got, "%s\t%s\n", p.name, hex.EncodeToString(h.Sum(nil))[:16])
	}
	path := filepath.Join("testdata", "apply_pin.txt")
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review and commit it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d pinned programs, %d now", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("pinned %q, now %q", wantLines[i], gotLines[i])
		}
	}
}
