package core_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ftn"
	"repro/internal/plan"
	"repro/internal/workload"
)

// siteLadder is a site's tile-size ladder as the tuner builds it: the
// divisors of its partition size and of its tiled loop's trip count.
func siteLadder(s *core.Site) []int64 {
	set := map[int64]bool{}
	for _, n := range []int64{s.PartitionSize, s.TripCount} {
		for d := int64(1); d <= n; d++ {
			if n%d == 0 {
				set[d] = true
			}
		}
	}
	var out []int64
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// planFromBytes decodes a plan for prog from four bytes per analysed site,
// in order (missing bytes read 0): a ladder rung (past the ladder's end,
// rung r is K = r − len + 1, which need not divide anything), the wait
// (bit 0) and send-order (bit 1) knobs, the interchange {auto, on, off} or
// skip, and the auto gate's threshold.
func planFromBytes(prog *core.Program, b []byte) *plan.Plan {
	at := func(i int) byte {
		if i < len(b) {
			return b[i]
		}
		return 0
	}
	pl := plan.Uniform(plan.Decision{K: 1})
	for i := range prog.Sites {
		s := &prog.Sites[i]
		if s.Pos.Line < 1 {
			continue
		}
		rung, knobs, ic, m := int(at(4*i)), at(4*i+1), at(4*i+2)%4, at(4*i+3)
		ladder := siteLadder(s)
		d := plan.Decision{
			InterchangeMinBlockBytes: []int64{0, 1, 64, 2048, 1 << 20}[m%5],
			Interchange:              []plan.Interchange{plan.InterchangeAuto, plan.InterchangeOn, plan.InterchangeOff, ""}[ic],
			Skip:                     ic == 3,
		}
		if rung < len(ladder) {
			d.K = ladder[rung]
		} else {
			d.K = int64(rung - len(ladder) + 1)
		}
		if knobs&1 != 0 {
			d.Wait = plan.WaitPerTile
		}
		if knobs&2 != 0 {
			d.SendOrder = plan.SendSequential
		}
		pl.Set(s.Key(), d)
	}
	return pl
}

// rejects reports whether the report has a site that was neither skipped
// nor transformed.
func rejects(rep *core.Report) bool {
	for _, s := range rep.Sites {
		if !s.Skipped && !s.Transformed {
			return true
		}
	}
	return false
}

// predictsRejection is the tuner's reading of a canonical form: the plan
// leaves a site it does not skip untransformed when it rewrites fewer sites
// than prog has, less the located ones it skips (a site the finder rejects
// is never reported skipped).
func predictsRejection(prog *core.Program, pl *plan.Plan, cn core.Canon) bool {
	skipped := 0
	for i := range prog.Sites {
		s := &prog.Sites[i]
		if s.Pattern != analysis.PatternUnknown && pl.For(s.Key()).Skip {
			skipped++
		}
	}
	return cn.Transformed < len(prog.Sites)-skipped
}

// checkCanon holds a canonical form to the report Apply gave for its plan.
func checkCanon(t testing.TB, what string, prog *core.Program, pl *plan.Plan, cn core.Canon, rep *core.Report) {
	t.Helper()
	if predictsRejection(prog, pl, cn) != rejects(rep) || cn.Transformed != rep.TransformedCount() {
		t.Fatalf("%s plan %s: canonical form %+v, report\n%s", what, pl.Key(), cn, rep)
	}
}

// TestApplyMatchesRoundLoop: over the corpus, the fixtures and 200 random
// kernels, under variant-build's knob plans, per-site divergent plans,
// plans carrying their own NP and 16 random decision vectors each, Apply on
// one shared Program (so later plans meet cached verdicts and aliased texts)
// returns the round loop's text and report. Every plan's canonical form
// predicts its report's rejections and rewrites, and within a program two
// plans share a canonical key exactly when their texts are byte-identical.
func TestApplyMatchesRoundLoop(t *testing.T) {
	r := rand.New(rand.NewSource(5405))
	plans, aliases := 0, 0
	for _, p := range differentialPrograms(t, 200) {
		prog, err := core.Analyze(p.src, core.AnalyzeOptions{})
		if err != nil {
			continue
		}
		pls := knobPlans(p.k)
		if len(prog.Sites) > 1 {
			pls = append(pls, divergentPlans(prog, p.k)...)
		}
		for _, np := range []int64{2, 4, 8} {
			pl := plan.Uniform(plan.Decision{K: p.k, Interchange: plan.InterchangeOn})
			pl.NP = np
			pls = append(pls, pl)
		}
		for i := 0; i < 16; i++ {
			b := make([]byte, 4*len(prog.Sites))
			for j := range b {
				b[j] = byte(r.Intn(12))
			}
			pls = append(pls, planFromBytes(prog, b))
		}
		keyOf, textOf := map[string]string{}, map[string]string{}
		for _, pl := range pls {
			cn, err := core.Canonical(prog, pl)
			if err != nil {
				t.Fatal(err)
			}
			text, textErr := cn.Text() // before Apply, which then meets its memo
			out, rep := sameAsRoundLoop(t, p.name, prog, pl)
			if text != out || textErr != nil {
				t.Fatalf("%s plan %s: Text gives another text than Apply, or the error %v", p.name, pl.Key(), textErr)
			}
			checkCanon(t, p.name, prog, pl, cn, rep)
			if pl.NP != 0 {
				continue // the rank count is in the key; texts may agree across it
			}
			plans++
			if prev, ok := textOf[cn.Key]; ok {
				aliases++
				if prev != out {
					t.Fatalf("%s plan %s: canonical key %q, but another text", p.name, pl.Key(), cn.Key)
				}
			}
			if prev, ok := keyOf[out]; ok && prev != cn.Key {
				t.Fatalf("%s plan %s: the text of key %q under key %q", p.name, pl.Key(), prev, cn.Key)
			}
			textOf[cn.Key], keyOf[out] = out, cn.Key
		}
	}
	t.Logf("%d plans without an NP of their own, %d aliased an earlier plan's canonical key", plans, aliases)
}

// TestApplyLocatesOnlyWhatItRewrites: an Apply locates, in its clone, the
// sites it transforms, an interchanged one once more after its interchange
// (every site an Apply interchanges it also transforms), and nothing when it
// rewrites nothing — it does not clone then either.
func TestApplyLocatesOnlyWhatItRewrites(t *testing.T) {
	scenario := func(name string) workload.Scenario {
		for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
			if sc.Name == name {
				return sc
			}
		}
		t.Fatalf("no scenario %s", name)
		return workload.Scenario{}
	}
	multi := scenario("multi/s3/nx1024/m64/ny16/sz8/np4/K8")
	lu := scenario("lu/n32/np4/K8")
	fig2 := readTestdata(t, "figure2_before.f90")
	cases := []struct {
		name        string
		src         string
		pl          func(*core.Program) *plan.Plan
		transformed int
		locates     int64
	}{
		{"skip all", multi.Source, func(*core.Program) *plan.Plan { return plan.Uniform(plan.Identity()) }, 0, 0},
		{"one site", fig2, func(*core.Program) *plan.Plan { return plan.Uniform(plan.Decision{K: 4}) }, 1, 1},
		{"three sites, one skipped", multi.Source, func(p *core.Program) *plan.Plan {
			pl := plan.Uniform(plan.Decision{K: 8})
			pl.Set(p.Sites[1].Key(), plan.Identity())
			return pl
		}, 2, 2},
		{"an interchanged site", lu.Source, func(*core.Program) *plan.Plan {
			return plan.Uniform(plan.Decision{K: 8, Interchange: plan.InterchangeOn})
		}, 1, 2},
		{"a rejected site", fig2, func(*core.Program) *plan.Plan { return plan.Uniform(plan.Decision{K: 3}) }, 0, 0},
	}
	for _, c := range cases {
		prog, err := core.Analyze(c.src, core.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pl := c.pl(prog)
		_, rep, err := core.Apply(prog, pl)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.TransformedCount(); got != c.transformed {
			t.Fatalf("%s: %d sites transformed, want %d\n%s", c.name, got, c.transformed, rep)
		}
		if got := core.Locates(prog); got != c.locates {
			t.Errorf("%s: %d sites located, want %d", c.name, got, c.locates)
		}
		if c.transformed == 0 {
			file := ftn.MustParse(c.src)
			clone := testing.AllocsPerRun(5, func() { ftn.CloneFile(file) })
			apply := testing.AllocsPerRun(5, func() { core.Apply(prog, pl) })
			if apply >= clone {
				t.Errorf("%s: Apply allocates %.0f times, a clone alone %.0f", c.name, apply, clone)
			}
		}
	}
}

// TestApplyErrsWhenARewriteDisagrees: a site whose rewrite in the clone
// gives another result than its cached verdict, or which locates there with
// other facts than the site the plan was decided on, fails the whole Apply,
// rather than return a text its report does not describe. A plan that
// rewrites nothing locates nothing and still answers.
func TestApplyErrsWhenARewriteDisagrees(t *testing.T) {
	src := readTestdata(t, "figure2_before.f90")
	pl := plan.Uniform(plan.Decision{K: 4, Interchange: plan.InterchangeOff})
	for _, c := range []struct {
		name    string
		corrupt func(*core.Program)
		want    string
	}{
		{"verdict", core.Misjudge, "MessagesTile"},
		{"notes", core.Misnote, "misnoted"},
	} {
		prog, err := core.Analyze(src, core.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := core.Apply(prog, pl)
		if err != nil {
			t.Fatal(err)
		}
		c.corrupt(prog)
		out, rep, err := core.Apply(prog, pl)
		if err == nil || !strings.Contains(err.Error(), "rewrote unlike its decision") ||
			!strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Apply after the corruption: err %v, report\n%s", c.name, err, rep)
		}
		if out != "" || rep != nil {
			t.Fatalf("%s: a failed Apply returned a text or a report", c.name)
		}
		if _, _, err := core.Apply(prog, plan.Uniform(plan.Identity())); err != nil {
			t.Fatalf("%s: skip-all plan: %v", c.name, err)
		}
		fresh, err := core.Analyze(src, core.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out, _, err := core.Apply(fresh, pl); err != nil || out != want {
			t.Fatalf("%s: a fresh Program: err %v, text equal %v", c.name, err, out == want)
		}
	}
}

// FuzzCanonicalPlan: two plans decoded from bytes (see planFromBytes) for
// one program of the corpus, the fixtures and 40 random kernels (the first
// argument indexes them in differentialPrograms' order; the committed seeds
// are under testdata/fuzz/FuzzCanonicalPlan; the last program is
// testdata/rejected_interchange.f90). On a fresh Program each Apply returns
// what the round loop returns; each plan's canonical form predicts a
// rejection exactly when its report has a site neither skipped nor
// transformed; the two canonical keys are equal exactly when the texts are;
// Canon.Text gives the text and error Apply gives; and the second plan,
// applied after the first on one Program, gets its fresh answer.
func FuzzCanonicalPlan(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "rejected_interchange.f90"))
	if err != nil {
		f.Fatal(err)
	}
	progs := append(differentialPrograms(f, 40), program{name: "rejected_interchange.f90", src: string(fixture), k: 2})
	f.Fuzz(func(t *testing.T, pi uint8, a, b []byte) {
		p := progs[int(pi)%len(progs)]
		analyze := func() *core.Program {
			prog, err := core.Analyze(p.src, core.AnalyzeOptions{})
			if err != nil {
				t.Skip(err)
			}
			return prog
		}
		shared := analyze()
		pa, pb := planFromBytes(shared, a), planFromBytes(shared, b)
		ca, err := core.Canonical(shared, pa)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := core.Canonical(shared, pb)
		if err != nil {
			t.Fatal(err)
		}
		outA, repA := sameAsRoundLoop(t, p.name, analyze(), pa)
		outB, repB := sameAsRoundLoop(t, p.name, analyze(), pb)
		checkCanon(t, p.name, shared, pa, ca, repA)
		checkCanon(t, p.name, shared, pb, cb, repB)
		if (ca.Key == cb.Key) != (outA == outB) {
			t.Fatalf("%s: keys %q and %q, texts equal %v", p.name, ca.Key, cb.Key, outA == outB)
		}
		// Text rewrites on the shared Program, before any Apply there.
		if text, err := ca.Text(); err != nil || text != outA {
			t.Fatalf("%s: plan %s: Text's error %v, text equal to Apply's %v", p.name, pa.Key(), err, text == outA)
		}
		core.Apply(shared, pa)
		out, rep, err := core.Apply(shared, pb)
		if err != nil || out != outB || !reflect.DeepEqual(normalizedReport(rep), normalizedReport(repB)) {
			t.Fatalf("%s: plan %s after %s on one Program: err %v, text equal %v, report\n%s\nfresh\n%s",
				p.name, pb.Key(), pa.Key(), err, out == outB, rep, repB)
		}
		if text, err := cb.Text(); err != nil || text != out {
			t.Fatalf("%s: plan %s: Text's error %v, text equal to Apply's %v", p.name, pb.Key(), err, text == out)
		}
	})
}
