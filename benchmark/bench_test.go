package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"testing"
)

// ---- op lists and the sim ranking ------------------------------------

func candidateNames(cs []simCandidate) []string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

func selectQuick(t *testing.T, seed int64) *simSelection {
	t.Helper()
	sel, err := selectSim(runConfig{seed: seed, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// One seed gives one op list and one ranking; another seed changes only the
// salts inside the sources, never which ops run or how they rank.
func TestOpListsRepeatAndSeedsOnlySalt(t *testing.T) {
	a, b := selectQuick(t, 7), selectQuick(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two selections with one seed differ")
	}
	other := selectQuick(t, 8)
	if !reflect.DeepEqual(candidateNames(a.Comm), candidateNames(other.Comm)) ||
		!reflect.DeepEqual(candidateNames(a.Compute), candidateNames(other.Compute)) {
		t.Fatalf("the ranking moved with the seed:\n%v\n%v", candidateNames(a.Comm), candidateNames(other.Comm))
	}
	for i := range a.Comm {
		x, y := a.Comm[i], other.Comm[i]
		if x.Key == y.Key {
			t.Errorf("%s: seeds 7 and 8 generated the same source", x.Name)
		}
		if x.Msgs != y.Msgs || x.Compute != y.Compute || x.Elapsed != y.Elapsed || x.OrigEl != y.OrigEl {
			t.Errorf("%s: a salt changed the simulated statistics", x.Name)
		}
	}
	if overlap := intersect(candidateNames(a.Comm), candidateNames(a.Compute)); len(overlap) > 0 {
		t.Errorf("the two ends of the ranking share %v", overlap)
	}

	cfg := runConfig{seed: 7, quick: true}
	v1, v2 := variantOps(corpus(cfg)), variantOps(corpus(cfg))
	if len(v1) != 6*len(corpus(cfg)) || len(v1) != len(v2) {
		t.Fatalf("variant-build has %d ops for %d scenarios", len(v1), len(corpus(cfg)))
	}
	for i := range v1 {
		if v1[i].sc.Source != v2[i].sc.Source || v1[i].pl.Key() != v2[i].pl.Key() {
			t.Fatalf("variant op %d differs between two calls", i)
		}
	}
	p1 := planOps(familyPrefix(cfg, corpus(cfg)))
	p2 := planOps(familyPrefix(runConfig{seed: 8, quick: true}, corpus(runConfig{seed: 8, quick: true})))
	for i := range p1 {
		if p1[i].sc.Name != p2[i].sc.Name || p1[i].machine.Name != p2[i].machine.Name || p1[i].query.FixedK != p2[i].query.FixedK {
			t.Fatalf("plan op %d differs across seeds in more than its source", i)
		}
	}
}

func intersect(a, b []string) []string {
	in := map[string]bool{}
	for _, x := range a {
		in[x] = true
	}
	var out []string
	for _, x := range b {
		if in[x] {
			out = append(out, x)
		}
	}
	return out
}

func TestFullPrefixIsOnePerFamily(t *testing.T) {
	cfg := runConfig{}
	seen := map[string]bool{}
	for _, sc := range familyPrefix(cfg, corpus(cfg)) {
		if seen[sc.Family] {
			t.Errorf("family %s appears twice in P", sc.Family)
		}
		seen[sc.Family] = true
	}
	if len(seen) != 9 {
		t.Errorf("P covers %d families, want 9", len(seen))
	}
}

// ---- statistics -------------------------------------------------------

func TestMedianAndNearestRank(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("even-count median = %v, want the lower middle sample 2", got)
	}
	if got := nearestRank(xs, 0.9); got != 9 {
		t.Errorf("p90 of five = %v, want 9", got)
	}
	if got := nearestRank(xs, 0.2); got != 1 {
		t.Errorf("p20 of five = %v, want 1", got)
	}
	if xs[0] != 9 {
		t.Error("nearestRank must not reorder its input")
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}

// The reported high percentile keeps at least ten raw samples beyond it and
// never drops below the median.
func TestHighRankKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ ops, rounds, want int }{
		{240, 18, 216}, // plain p90: 24 ops beyond
		{36, 5, 33},    // 3 ops x 5 rounds = 15 samples beyond
		{36, 3, 32},    // rank 33 leaves 9 samples beyond: lowered by one op
		{27, 4, 24},    // rank 25 leaves 8 samples beyond
		{27, 2, 22},    // -quick: five ops beyond
		{9, 2, 5},      // too few samples anywhere above the median
		{1, 4, 1},      // sweep-tuned: one op, the median
	} {
		if got := highRank(tc.ops, tc.rounds, 0.90); got != tc.want {
			t.Errorf("highRank(%d ops, %d rounds) = %d, want %d", tc.ops, tc.rounds, got, tc.want)
		}
	}
}

// Per-op medians shrug off a burst that covers fewer than half the rounds.
func TestPerOpMediansIgnoreAMinorityOfRounds(t *testing.T) {
	quiet := []float64{1, 10, 100}
	var samples []float64
	for r := 0; r < 5; r++ {
		for _, v := range quiet {
			if r == 1 || r == 3 { // two disturbed rounds of five
				v *= 1.5
			}
			samples = append(samples, v)
		}
	}
	if got := perOpMedians(samples, len(quiet)); !reflect.DeepEqual(got, quiet) {
		t.Errorf("perOpMedians = %v, want %v", got, quiet)
	}
}

func TestIQRShareMatchesExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got := geomean([]float64{2, 8}); got < 3.999999 || got > 4.000001 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
}

// ---- spans ------------------------------------------------------------

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},     // 0
		{Name: "a", Start: 10, End: 40, Parent: 0},       // 1
		{Name: "b", Start: 30, End: 60, Parent: 0},       // 2: overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0},      // 3: runs 20 past the parent
		{Name: "a.inner", Start: 15, End: 25, Parent: 1}, // 4
		{Name: "op", Start: 200, End: 230, Parent: -1},   // 5: a second op, no children
	}
	want := []int64{
		100 - (50 + 10), // children cover [10,60) and [90,100)
		30 - 10,
		30,
		30,
		10,
		30,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	rows := layerTable(spans)
	if rows[0].Name != "op" || rows[0].Count != 2 || rows[0].SelfNs != 70 {
		t.Errorf("layerTable first row = %+v, want op x2 with 70 ns", rows[0])
	}
}

func TestTracerNestsAndNilIsFree(t *testing.T) {
	var off *tracer
	off.end(off.begin("x"))
	off.end(off.beginOp("x", 1))
	off.async("x")()

	tr := newTracer()
	op := tr.beginOp("op", 7)
	a := tr.begin("a")
	inner := tr.begin("a.inner")
	done := tr.async("store")
	tr.end(inner)
	tr.end(a)
	done()
	b := tr.begin("b")
	tr.end(b)
	tr.end(op)
	parents := map[string]int{}
	for _, s := range tr.spans {
		parents[s.Name] = s.Parent
		if s.Op != 7 {
			t.Errorf("span %s has op %d, want 7", s.Name, s.Op)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	want := map[string]int{"op": -1, "a": op, "a.inner": a, "store": op, "b": op}
	if !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
}

// ---- the contract -----------------------------------------------------

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the tables in this package name the same workloads
// and metrics, with the same units, directions and bounds.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, the round counts are sized for %d", m.RunSeconds, nominalSeconds)
	}
	if len(m.Workloads) != len(workloads()) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(m.Workloads), len(workloads()))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads() {
		unique(w.name)
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the table %q", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd()) || len(m.PerLayer) != len(perLayer()) {
		t.Fatalf("BENCHMARK.json has %d + %d metrics, the tables %d + %d",
			len(m.EndToEnd), len(m.PerLayer), len(endToEnd()), len(perLayer()))
	}
	better := func(d metricDef) string {
		if d.Higher {
			return "higher"
		}
		return "lower"
	}
	for i, d := range endToEnd() {
		unique(d.Name)
		got := m.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != better(d) || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v, the table has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, d := range perLayer() {
		unique(d.Name)
		got := m.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != better(d) {
			t.Errorf("per_layer %d: %+v, the table has %+v", i, got, d)
		}
	}
}

func metricNames(res *result) []string {
	var names []string
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func tableNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// One real pass in -quick mode: every workload emits exactly the end-to-end
// metrics, fails nothing and agrees with its own units; one traced run emits
// exactly the per-layer metrics and a trace file that loads.
func TestQuickPassEmitsEveryMetric(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, def := range workloads() {
		w := &def
		cfg := runConfig{workload: w.name, seed: 1, seconds: nominalSeconds, quick: true}
		var selected *simSelection
		if w.sim {
			selected = selectQuick(t, cfg.seed)
		}
		res, err := runWorkload(w, cfg, selected, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v, %d failed of %d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		if got, want := metricNames(res), tableNames(endToEnd()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s emitted %v, want %v", w.name, got, want)
		}
		for _, d := range endToEnd() {
			if v := res.Metrics[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %v %s, want a positive value in %s", w.name, d.Name, v.Value, v.Unit, d.Unit)
			}
		}
	}

	out := filepath.Join(t.TempDir(), "out.json")
	w := findWorkload("plan-cold")
	res, err := runWorkload(w, runConfig{workload: w.name, seed: 1, seconds: nominalSeconds, quick: true, trace: true, traceOut: out}, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := metricNames(res), tableNames(perLayer()); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run emitted %v, want %v", got, want)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("trace file does not load: %v", err)
	}
	names := map[string]bool{}
	for _, s := range tf.Spans {
		names[s.Name] = true
		if s.Parent >= len(tf.Spans) || s.End < s.Start {
			t.Fatalf("malformed span %+v", s)
		}
	}
	for _, want := range []string{"session.Plan", "exec.VariantStore.Get/miss", "exec.VariantStore.Get/hit"} {
		if !names[want] {
			t.Errorf("the plan-cold trace has no %s span", want)
		}
	}
}

func TestLastResultReadsOnlyTheLastLine(t *testing.T) {
	out := []byte("setup_s 1.5 s\n{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{}}\n" +
		"{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}}}\n\n")
	res, err := lastResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 12 || res.Metrics["setup_s"].Value != 1.5 {
		t.Errorf("decoded %+v", res)
	}
	if _, err := lastResult([]byte("no result here\n")); err == nil {
		t.Error("a run without a result line must be an error")
	}
}
