package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ftn"
	"repro/internal/interp"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/verify"
	"repro/internal/workload"
)

// transform is the one-shot road: analyze src afresh, apply the uniform plan d.
func transform(src string, aopts core.AnalyzeOptions, d plan.Decision) (string, *core.Report, error) {
	prog, err := core.Analyze(src, aopts)
	if err != nil {
		return "", nil, err
	}
	return core.Apply(prog, plan.Uniform(d))
}

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return string(b)
}

// TestGoldenDirect pins the Figure 2 transformation output: the golden file
// is the reviewed transformed source; any codegen change must be looked at.
func TestGoldenDirect(t *testing.T) {
	src := readTestdata(t, "figure2_before.f90")
	want := readTestdata(t, "figure2_after.f90")
	got, rep, err := transform(src, core.AnalyzeOptions{}, plan.Decision{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		t.Fatalf("report:\n%s", rep)
	}
	if got != want {
		t.Errorf("golden mismatch for figure2_after.f90:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestGoldenIndirect pins the Figure 3 transformation output.
func TestGoldenIndirect(t *testing.T) {
	src := readTestdata(t, "figure3_before.f90")
	want := readTestdata(t, "figure3_after.f90")
	got, rep, err := transform(src, core.AnalyzeOptions{}, plan.Decision{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		t.Fatalf("report:\n%s", rep)
	}
	if got != want {
		t.Errorf("golden mismatch for figure3_after.f90:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestGoldenCommCode pins the Figure 4 generated exchange: the golden file
// holds the per-tile block as printed by cmd/paperfigs.
func TestGoldenCommCode(t *testing.T) {
	want := strings.TrimRight(readTestdata(t, "figure4_commcode.f90"), "\n")
	// The block must contain the staggered ring of the paper's Figure 4.
	for _, key := range []string{
		"cc_to = mod(cc_me + cc_j, cc_np)",
		"cc_from = mod(cc_np + cc_me - cc_j, cc_np)",
		"call mpi_isend(as(",
		"call mpi_irecv(ar(",
	} {
		if !strings.Contains(want, key) {
			t.Errorf("golden comm code missing %q", key)
		}
	}
}

// TestTransformedGoldenRunsIdentically executes the golden transformed
// sources against their originals (the §4 correctness protocol).
func TestTransformedGoldenRunsIdentically(t *testing.T) {
	cases := []struct {
		before, after string
		np            int
	}{
		{"figure2_before.f90", "figure2_after.f90", 8},
		{"figure3_before.f90", "figure3_after.f90", 4},
	}
	for _, c := range cases {
		orig, err := interp.Load(readTestdata(t, c.before))
		if err != nil {
			t.Fatalf("%s: %v", c.before, err)
		}
		pre, err := interp.Load(readTestdata(t, c.after))
		if err != nil {
			t.Fatalf("%s: %v", c.after, err)
		}
		ro, err := orig.Run(c.np, netsim.MPICHGM())
		if err != nil {
			t.Fatalf("%s: %v", c.before, err)
		}
		rt, err := pre.Run(c.np, netsim.MPICHGM())
		if err != nil {
			t.Fatalf("%s: %v", c.after, err)
		}
		if same, why := interp.SameObservable(ro, rt, "ar"); !same {
			t.Errorf("%s vs %s: %s", c.before, c.after, why)
		}
	}
}

// TestReportContents checks the report plumbing end to end.
func TestReportContents(t *testing.T) {
	src := readTestdata(t, "figure2_before.f90")
	_, rep, err := transform(src, core.AnalyzeOptions{}, plan.Decision{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"1 transformed", "direct pattern", "node loop outermost", "K=4", "NP=8"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// TestMultipleSitesTransformed: two independent ALLTOALL sites in one
// program are both rewritten.
func TestMultipleSitesTransformed(t *testing.T) {
	src := `
program twosites
  implicit none
  include 'mpif.h'
  integer, parameter :: nx = 32
  integer, parameter :: np = 4
  integer as(1:nx), ar(1:nx)
  integer bs(1:nx), br(1:nx)
  integer i, ierr

  call mpi_init(ierr)
  do i = 1, nx
    as(i) = i*2
  enddo
  call mpi_alltoall(as, nx/np, mpi_integer, ar, nx/np, mpi_integer, mpi_comm_world, ierr)
  do i = 1, nx
    bs(i) = ar(i) + i
  enddo
  call mpi_alltoall(bs, nx/np, mpi_integer, br, nx/np, mpi_integer, mpi_comm_world, ierr)
  print *, ar(1), br(nx)
  call mpi_finalize(ierr)
end program twosites
`
	out, rep, err := transform(src, core.AnalyzeOptions{}, plan.Decision{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 2 {
		t.Fatalf("transformed %d sites, want 2:\n%s", rep.TransformedCount(), rep)
	}
	if strings.Contains(out, "call mpi_alltoall") {
		t.Error("an original call survived")
	}
	// And the rewritten program still runs identically.
	orig, err := interp.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := interp.Load(out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	ro, err := orig.Run(4, netsim.MPICHGM())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := pre.Run(4, netsim.MPICHGM())
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if same, why := interp.SameObservable(ro, rt); !same {
		t.Errorf("mismatch: %s", why)
	}
}

// TestRejectionsReportedOnce: an untransformable site appears exactly once
// in the report.
func TestRejectionsReportedOnce(t *testing.T) {
	src := `
program p
  implicit none
  include 'mpif.h'
  integer as(1:8), ar(1:8), i, ierr
  do i = 1, 8
    if (i > 4) then
      as(i) = i
    endif
  enddo
  call mpi_alltoall(as, 2, mpi_integer, ar, 2, mpi_integer, mpi_comm_world, ierr)
end program p
`
	_, rep, err := transform(src, core.AnalyzeOptions{NP: 4}, plan.Decision{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 0 {
		t.Fatal("conditional write should not transform")
	}
	if len(rep.Sites) != 1 {
		t.Errorf("sites = %d, want 1:\n%s", len(rep.Sites), rep)
	}
}

// dimAttrTempSrc has an indirect site whose temporary is declared through a
// dimension attribute, which the buffer expansion does not support, followed
// by a direct site that transforms.
const dimAttrTempSrc = `
program twosites
  implicit none
  include 'mpif.h'
  integer, parameter :: n = 4
  integer, parameter :: np = 2
  integer, parameter :: nx = 16
  integer as(1:n, 1:n, 1:n)
  integer ar(1:n, 1:n, 1:n)
  integer, dimension(1:16) :: at
  integer bs(1:nx)
  integer br(1:nx)
  integer iy, ix, tx, ty, ierr, me

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do iy = 1, n
    call p(iy, me, at)
    do ix = 1, 16
      tx = mod(ix - 1, n) + 1
      ty = (ix - 1)/n + 1
      as(tx, ty, iy) = at(ix)
    enddo
  enddo
  call mpi_alltoall(as, 32, mpi_integer, ar, 32, mpi_integer, mpi_comm_world, ierr)
  do ix = 1, nx
    bs(ix) = ix*3 + me
  enddo
  call mpi_alltoall(bs, nx/np, mpi_integer, br, nx/np, mpi_integer, mpi_comm_world, ierr)
  print *, ar(1, 1, 1), ar(n, n, n), br(1), br(nx)
  call mpi_finalize(ierr)
end program twosites

subroutine p(iy, me, at)
  integer iy, me
  integer at(*)
  integer i
  do i = 1, 16
    at(i) = i*1000 + iy*10 + me
  enddo
end subroutine p
`

// TestRejectedSiteLeftUntouched: a site the transformer rejects is rejected
// before anything is written. The temporary's declaration keeps its bytes,
// the program has two sites (no phantom third one from re-analysing a
// half-rewritten first), the variant verifies, and it runs identically.
func TestRejectedSiteLeftUntouched(t *testing.T) {
	prog, err := core.Analyze(dimAttrTempSrc, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Sites) != 2 || prog.Sites[0].Transformable || !prog.Sites[1].Transformable {
		t.Fatalf("want the indirect site rejected and the direct one transformable, got %+v", prog.Sites)
	}
	atDecl := func(src string) string {
		for _, line := range strings.Split(src, "\n") {
			if strings.Contains(line, ":: at") {
				return line
			}
		}
		return ""
	}
	orig, err := interp.Load(dimAttrTempSrc)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := orig.Run(2, netsim.MPICHGM())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{1, 2} {
		pl := plan.Uniform(plan.Decision{K: k})
		out, rep, err := core.Apply(prog, pl)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TransformedCount() != 1 || len(rep.Sites) != 2 {
			t.Fatalf("K=%d: %s", k, rep)
		}
		if got, want := atDecl(out), atDecl(dimAttrTempSrc); got != want {
			t.Errorf("K=%d: the rejected site's temporary is declared %q, was %q", k, got, want)
		}
		if diags := verify.Variant(prog, pl, out, rep); len(diags) != 0 {
			t.Errorf("K=%d: %s", k, verify.Summarize(diags))
		}
		pre, err := interp.Load(out)
		if err != nil {
			t.Fatalf("K=%d: %v\n%s", k, err, out)
		}
		rt, err := pre.Run(2, netsim.MPICHGM())
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if same, why := interp.SameObservable(ro, rt, "ar", "br"); !same {
			t.Errorf("K=%d: %s", k, why)
		}
	}
}

// TestOraclePropagation: the semi-automatic oracle flows through Options.
func TestOraclePropagation(t *testing.T) {
	src := `
program p
  implicit none
  include 'mpif.h'
  integer as(1:8), ar(1:8), other(1:8), i, ierr
  do i = 1, 8
    other(i) = i
  enddo
  do i = 1, 8
    call extfill(as, i)
  enddo
  call mpi_alltoall(as, 2, mpi_integer, ar, 2, mpi_integer, mpi_comm_world, ierr)
end program p
`
	// The oracle says extfill writes as: ℓ is found (then rejected at the
	// pattern stage, since only a call mutates as — but the rejection
	// message proves the oracle was consulted and ℓ located).
	_, rep, err := transform(src, core.AnalyzeOptions{NP: 4, Oracle: analysis.MapOracle{"extfill:as": true}}, plan.Decision{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range rep.Sites {
		if strings.Contains(s.Reason, "procedure calls") {
			found = true
		}
	}
	if !found {
		t.Errorf("report: %s", rep)
	}
}

// TestIdempotentParsePrint: transformed output must itself be parseable and
// printable to a fixpoint (the unparser produces valid subset source).
func TestIdempotentParsePrint(t *testing.T) {
	for _, name := range []string{"figure2_after.f90", "figure3_after.f90"} {
		src := readTestdata(t, name)
		f, err := ftn.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again := ftn.Print(f)
		if again != src {
			t.Errorf("%s: print(parse(x)) != x", name)
		}
	}
}

// TestPipelineGoldenEquivalence is the redesign's conformance proof: for
// every testdata fixture, Analyze → Plan → Apply must emit byte-identical
// source to the old one-shot path — whose reviewed outputs are the
// committed *_after.f90 goldens — both via the Options shim and via a
// Default(machine) plan with the fixture's K.
func TestPipelineGoldenEquivalence(t *testing.T) {
	cases := []struct {
		before, golden string
		k              int64
	}{
		{"figure2_before.f90", "figure2_after.f90", 4},
		{"figure3_before.f90", "figure3_after.f90", 2},
	}
	for _, c := range cases {
		src := readTestdata(t, c.before)
		want := readTestdata(t, c.golden)
		prog, err := core.Analyze(src, core.AnalyzeOptions{})
		if err != nil {
			t.Fatalf("%s: analyze: %v", c.before, err)
		}

		// Via the Options shim (the legacy one-shot surface).
		got, rep, err := core.Apply(prog, plan.Uniform(plan.Decision{K: c.k}))
		if err != nil {
			t.Fatalf("%s: apply(shim plan): %v", c.before, err)
		}
		if rep.TransformedCount() != 1 {
			t.Fatalf("%s: shim plan did not fire:\n%s", c.before, rep)
		}
		if got != want {
			t.Errorf("%s: Apply(Options{K:%d}.Plan()) differs from golden %s", c.before, c.k, c.golden)
		}

		// Via a machine-default plan with the fixture's K: same bytes.
		pl := plan.Default(plan.MPICHGM2005())
		pl.Default.K = c.k
		got2, _, err := core.Apply(prog, pl)
		if err != nil {
			t.Fatalf("%s: apply(default plan): %v", c.before, err)
		}
		if got2 != want {
			t.Errorf("%s: Apply(plan.Default) differs from golden %s", c.before, c.golden)
		}

		// And the plan survives a JSON round trip without changing output.
		b, err := pl.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := plan.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		got3, _, err := core.Apply(prog, back)
		if err != nil {
			t.Fatal(err)
		}
		if got3 != want {
			t.Errorf("%s: Apply(decoded plan) differs from golden %s", c.before, c.golden)
		}
	}
}

// TestAnalyzeSites: Analyze surfaces per-site facts a planner needs.
func TestAnalyzeSites(t *testing.T) {
	src := readTestdata(t, "figure2_before.f90")
	prog, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Sites) != 1 {
		t.Fatalf("sites = %d, want 1", len(prog.Sites))
	}
	s := prog.Sites[0]
	if !s.Transformable {
		t.Fatalf("site not transformable: %s", s.Reason)
	}
	if s.PartitionSize != 8 { // nx=64, np=8
		t.Errorf("partition size %d, want 8", s.PartitionSize)
	}
	if s.TripCount != 64 {
		t.Errorf("trip count %d, want 64", s.TripCount)
	}
	if s.PerIterBytes <= 0 {
		t.Errorf("per-iteration bytes %d, want > 0", s.PerIterBytes)
	}
	if prog.Site(s.Key()) == nil {
		t.Errorf("Site(%q) did not resolve", s.Key())
	}
	if prog.Source() != src {
		t.Error("Program.Source() does not round-trip the input")
	}
}

// TestApplyMatchesTransform: applying a uniform plan at K must produce
// exactly what a fresh Analyze + Apply at that K produces, for every K the
// transform accepts — the property the tuner's pipeline reuse depends on.
func TestApplyMatchesTransform(t *testing.T) {
	src := readTestdata(t, "figure2_before.f90")
	prog, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{2, 4, 8} {
		got, grep, err := core.Apply(prog, plan.Uniform(plan.Decision{K: k}))
		if err != nil {
			t.Fatalf("apply K=%d: %v", k, err)
		}
		want, wrep, err := transform(src, core.AnalyzeOptions{}, plan.Decision{K: k})
		if err != nil {
			t.Fatalf("transform K=%d: %v", k, err)
		}
		if got != want {
			t.Errorf("K=%d: applied source differs from a fresh analysis's output", k)
		}
		if grep.TransformedCount() != wrep.TransformedCount() {
			t.Errorf("K=%d: transformed %d sites, want %d", k, grep.TransformedCount(), wrep.TransformedCount())
		}
	}
	// Memoization: an equivalent plan hits the memo, but each caller gets
	// its own defensive report copy — never the stored pointer (a shared
	// pointer would let one caller's mutation race another's read).
	_, r1, _ := core.Apply(prog, plan.Uniform(plan.Decision{K: 4}))
	_, r2, _ := core.Apply(prog, plan.Uniform(plan.Decision{K: 4}))
	if r1 == r2 {
		t.Error("apply memo returned the same *Report pointer to two callers")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("apply memo hit is not value-equal to the stored report")
	}
	// Mutating a hit must not leak into later hits.
	r1.Sites[0].Reason = "mutated by caller"
	r1.Sites[0].Result.K = -1
	r1.Sites[0].Notes = append(r1.Sites[0].Notes, "caller note")
	_, r3, _ := core.Apply(prog, plan.Uniform(plan.Decision{K: 4}))
	if !reflect.DeepEqual(r2, r3) {
		t.Error("mutating a memo hit leaked into a later hit")
	}
}

// TestApplyMemoHitsAreRaceFree: concurrent callers of a memoized plan may
// each mutate their own report copy; under -race this proves hits do not
// share mutable state.
func TestApplyMemoHitsAreRaceFree(t *testing.T) {
	src := readTestdata(t, "figure2_before.f90")
	prog, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pl := plan.Uniform(plan.Decision{K: 4})
	if _, _, err := core.Apply(prog, pl); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, rep, err := core.Apply(prog, pl)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// Each caller scribbles on its copy; the race detector
				// flags any sharing with other workers' copies.
				rep.Sites[0].Reason = fmt.Sprintf("worker %d iter %d", w, i)
				rep.Sites[0].Result.Notes = append(rep.Sites[0].Result.Notes, "scribble")
				rep.Sites[0].Result.K = int64(i)
			}
		}(w)
	}
	wg.Wait()
}

// TestApplyRejectsBadPlans: an invalid plan is an error; a K the
// transformation cannot honor is reported, not fatal, and does not poison
// other plans.
func TestApplyRejectsBadPlans(t *testing.T) {
	src := readTestdata(t, "figure2_before.f90") // psz = 8
	prog, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.Apply(prog, &plan.Plan{Schema: "bogus", Default: plan.Decision{K: 4}}); err == nil {
		t.Error("invalid plan accepted")
	}
	if _, _, err := core.Apply(prog, plan.Uniform(plan.Decision{K: 8, Wait: "sometimes"})); err == nil {
		t.Error("invalid wait schedule accepted")
	}
	_, rep, err := core.Apply(prog, plan.Uniform(plan.Decision{K: 3})) // does not divide psz
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 0 {
		t.Error("K=3 should not transform (does not divide psz)")
	}
	_, rep, err = core.Apply(prog, plan.Uniform(plan.Decision{K: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 {
		t.Errorf("K=8 should transform after a rejected K:\n%s", rep)
	}
}

// TestPlanKnobsChangeCodegen: the non-K knobs actually steer the generated
// code — per-site, through a serializable plan.
func TestPlanKnobsChangeCodegen(t *testing.T) {
	src := readTestdata(t, "figure2_before.f90")
	prog, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base, rep, err := core.Apply(prog, plan.Uniform(plan.Decision{K: 4}))
	if err != nil || rep.TransformedCount() != 1 {
		t.Fatalf("base apply failed: %v\n%s", err, rep)
	}
	if !strings.Contains(base, "staggered subset-send traversal") {
		t.Fatal("default plan should stagger this kernel")
	}

	seq, _, err := core.Apply(prog, plan.Uniform(plan.Decision{K: 4, SendOrder: plan.SendSequential}))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(seq, "staggered subset-send traversal") {
		t.Error("send_order sequential still staggered")
	}
	if seq == base {
		t.Error("send_order knob changed nothing")
	}

	perTile, _, err := core.Apply(prog, plan.Uniform(plan.Decision{K: 4, Wait: plan.WaitPerTile}))
	if err != nil {
		t.Fatal(err)
	}
	if perTile == base {
		t.Error("wait knob changed nothing")
	}

	// A per-site decision overrides the default for that site only.
	sitePlan := plan.Uniform(plan.Decision{K: 4})
	sitePlan.Set(prog.Sites[0].Key(), plan.Decision{K: 8})
	persite, rep, err := core.Apply(prog, sitePlan)
	if err != nil || rep.TransformedCount() != 1 {
		t.Fatalf("per-site apply failed: %v", err)
	}
	want, _, err := core.Apply(prog, plan.Uniform(plan.Decision{K: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if persite != want {
		t.Error("per-site decision did not apply")
	}
	if rep.Sites[0].Decision.K != 8 {
		t.Errorf("report decision K=%d, want 8", rep.Sites[0].Decision.K)
	}
}

// TestSkipAllByteIdentical: a plan that skips every site is the identity —
// Apply hands back the original source byte-for-byte (not a print∘parse
// approximation of it), reports every site as skipped, and the exec variant
// cache therefore hits on the original's hash instead of compiling a
// second artifact.
func TestSkipAllByteIdentical(t *testing.T) {
	src := readTestdata(t, "figure2_before.f90")
	prog, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := core.Apply(prog, plan.Uniform(plan.Identity()))
	if err != nil {
		t.Fatal(err)
	}
	if out != src {
		t.Error("skip-all variant is not byte-identical to the original source")
	}
	if rep.TransformedCount() != 0 {
		t.Errorf("skip-all transformed %d sites:\n%s", rep.TransformedCount(), rep)
	}
	if rep.SkippedCount() != len(prog.Sites) {
		t.Errorf("skipped %d of %d sites:\n%s", rep.SkippedCount(), len(prog.Sites), rep)
	}
	for _, sr := range rep.Sites {
		if !sr.Skipped || !sr.Decision.Skip {
			t.Errorf("site %s report not marked skipped: %+v", sr.Pos, sr)
		}
	}
	if s := rep.String(); !strings.Contains(s, "skipped by plan") {
		t.Errorf("report does not say skipped by plan:\n%s", s)
	}

	// The byte identity is what makes skip free at execution time: compiling
	// the original then the skip-all variant is one compile and one hit.
	store := exec.NewMemStore()
	if _, err := store.Get(src); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get(out); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Compiled != 1 || st.Hits != 1 {
		t.Errorf("store stats %+v, want 1 compiled + 1 hit on the original's hash", st)
	}
}

// TestMixedSkipTransformDifferential: on a multi-site program, a plan that
// skips one site and transforms the other must leave the skipped call
// untouched, rewrite the other, and still run bit-identically to the
// original (the §4 protocol, with the tree-walking interpreter as oracle).
func TestMixedSkipTransformDifferential(t *testing.T) {
	src := workload.MultiSource(workload.MultiParams{
		NX: 256, M: 16, NY: 8, SZ: 8, NP: 4,
	})
	prog, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	transformable := 0
	for _, s := range prog.Sites {
		if s.Transformable {
			transformable++
		}
	}
	if transformable != 2 {
		t.Fatalf("transformable sites = %d, want 2", transformable)
	}
	pl := plan.Uniform(plan.Decision{K: 4})
	pl.Set(prog.Sites[0].Key(), plan.Identity())
	pl.Set(prog.Sites[1].Key(), plan.Decision{K: 8}.Normalize())
	out, rep, err := core.Apply(prog, pl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 1 || rep.SkippedCount() != 1 {
		t.Fatalf("transformed %d, skipped %d, want 1 and 1:\n%s",
			rep.TransformedCount(), rep.SkippedCount(), rep)
	}
	// Exactly one original alltoall call survives — the skipped one.
	if n := strings.Count(out, "call mpi_alltoall"); n != 1 {
		t.Errorf("%d original alltoall calls in output, want exactly 1 (the skipped site)", n)
	}
	if out == src {
		t.Error("mixed plan changed nothing")
	}
	// Differential run against the original.
	orig, err := interp.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := interp.Load(out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	ro, err := orig.Run(4, netsim.MPICHGM())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := mixed.Run(4, netsim.MPICHGM())
	if err != nil {
		t.Fatal(err)
	}
	if same, why := interp.SameObservable(ro, rt, "ar", "br"); !same {
		t.Errorf("mixed skip/transform rewrite changed results: %s", why)
	}
}

// TestApplyRejectsUnknownSite: a plan entry keyed to a site the program
// does not contain (a stale dump, a typo) must fail loudly instead of
// silently applying the default everywhere.
func TestApplyRejectsUnknownSite(t *testing.T) {
	src := readTestdata(t, "figure2_before.f90")
	prog, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pl := plan.Uniform(plan.Decision{K: 4})
	pl.Set("999:1", plan.Decision{K: 8}.Normalize())
	if _, _, err := core.Apply(prog, pl); err == nil {
		t.Fatal("Apply accepted a plan referencing a nonexistent site")
	} else if !strings.Contains(err.Error(), "999:1") {
		t.Errorf("error does not name the bogus site: %v", err)
	}
	// The real site key still works.
	pl = plan.Uniform(plan.Decision{K: 4})
	pl.Set(prog.Sites[0].Key(), plan.Decision{K: 8}.Normalize())
	if _, _, err := core.Apply(prog, pl); err != nil {
		t.Fatalf("Apply rejected a valid per-site plan: %v", err)
	}
}

// TestMultiSiteDivergentApply: a multi-site program rewritten under a plan
// with a different decision per site must (a) transform every site with
// its own K, (b) keep the generated cc_* helper names unique across sites,
// and (c) still run bit-identically to the original.
func TestMultiSiteDivergentApply(t *testing.T) {
	src := workload.MultiSource(workload.MultiParams{
		NX: 256, M: 16, NY: 8, SZ: 8, NP: 4,
	})
	prog, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	transformable := 0
	for _, s := range prog.Sites {
		if s.Transformable {
			transformable++
		}
	}
	if transformable != 2 {
		t.Fatalf("transformable sites = %d, want 2", transformable)
	}
	wantK := map[string]int64{}
	pl := plan.Uniform(plan.Decision{K: 4})
	ks := []int64{16, 2}
	for i := range prog.Sites {
		pl.Set(prog.Sites[i].Key(), plan.Decision{K: ks[i]}.Normalize())
		wantK[prog.Sites[i].Key()] = ks[i]
	}
	out, rep, err := core.Apply(prog, pl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 2 {
		t.Fatalf("transformed %d sites, want 2:\n%s", rep.TransformedCount(), rep)
	}
	for _, sr := range rep.Sites {
		if got := sr.Result.K; got != wantK[sr.Pos.String()] {
			t.Errorf("site %s transformed at K=%d, want %d", sr.Pos, got, wantK[sr.Pos.String()])
		}
	}
	// Fresh names must not collide across the two rewritten sites: every
	// cc_* identifier is declared exactly once.
	f, err := ftn.Parse(out)
	if err != nil {
		t.Fatalf("transformed source does not re-parse: %v", err)
	}
	declared := map[string]int{}
	for _, u := range f.Units {
		for _, d := range u.Decls {
			for _, e := range d.Entities {
				if strings.HasPrefix(e.Name, "cc_") {
					declared[e.Name]++
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no cc_* helpers declared")
	}
	for name, n := range declared {
		if n != 1 {
			t.Errorf("helper %s declared %d times", name, n)
		}
	}
	// Differential run: original vs divergent-plan rewrite.
	for _, variant := range []string{src, out} {
		if _, err := interp.Load(variant); err != nil {
			t.Fatal(err)
		}
	}
	orig, _ := interp.Load(src)
	pre, _ := interp.Load(out)
	ro, err := orig.Run(4, netsim.MPICHGM())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := pre.Run(4, netsim.MPICHGM())
	if err != nil {
		t.Fatal(err)
	}
	if same, why := interp.SameObservable(ro, rt, "ar", "br"); !same {
		t.Errorf("divergent-plan rewrite changed results: %s", why)
	}
}

// TestNonASCIINameRejected: a name holding a byte outside ASCII — here the
// byte 0xF2 in the program name of scenario 0, which unicode.IsLetter once
// took for 'ò' — is refused by the lexer at its line and column instead of
// being accepted and printed back as U+FFFD, which no parse reads again.
// Every source the front end accepts prints to a fixpoint.
func TestNonASCIINameRejected(t *testing.T) {
	sc := workload.GenerateScenarios(workload.GenOptions{})[0]
	if !strings.HasPrefix(strings.TrimSpace(sc.Source), "program direct\n") {
		t.Fatalf("scenario 0 no longer starts with %q", "program direct")
	}
	renamed := strings.ReplaceAll(sc.Source, "program direct", "program d\xf2rect")
	_, err := core.Analyze(renamed, core.AnalyzeOptions{})
	if err == nil || !strings.Contains(err.Error(), "2:10: unexpected byte 0xf2") {
		t.Fatalf("analyze of a name holding byte 0xf2: err = %v, want a lexer error at 2:10", err)
	}
	for _, src := range []string{sc.Source, strings.ReplaceAll(renamed, "\xf2", "o")} {
		f, err := ftn.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		once := ftn.Print(f)
		g, err := ftn.Parse(once)
		if err != nil {
			t.Fatalf("printed source does not parse: %v", err)
		}
		if twice := ftn.Print(g); twice != once {
			t.Errorf("parse → print → parse is no fixpoint:\n%s\nvs\n%s", once, twice)
		}
	}
}

// TestEmptyExchangeDeclined: an alltoall over a zero-extent last dimension
// exchanges zero-element partitions. The check half declines the site at
// its position, so Apply emits nothing and the static verifier, which holds
// a staggered schedule to a positive partition, has nothing to disagree with.
func TestEmptyExchangeDeclined(t *testing.T) {
	src := `program empty
  implicit none
  include 'mpif.h'
  integer, parameter :: np = 2
  integer, parameter :: nx = 0
  integer as(nx)
  integer ar(0)
  integer ix, ierr
  do ix = 1, nx
    as(ix) = ix
  enddo
  call mpi_alltoall(as, 0, 0, ar, 0, 0, 0, 0)
end program empty
`
	prog, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Sites) != 1 {
		t.Fatalf("sites = %d, want 1", len(prog.Sites))
	}
	const want = "the last dimension of as is empty"
	if s := prog.Sites[0]; s.Transformable || s.Pos.String() != "12:3" || !strings.Contains(s.Reason, want) {
		t.Fatalf("site %s transformable = %v, reason %q; want declined at 12:3 with %q", s.Pos, s.Transformable, s.Reason, want)
	}
	pl := plan.Uniform(plan.Decision{K: 2})
	out, rep, err := core.Apply(prog, pl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 0 || !strings.Contains(rep.FirstRejection(), want) {
		t.Fatalf("apply at K=2: %d transformed, first rejection %q; want the site declined", rep.TransformedCount(), rep.FirstRejection())
	}
	if diags := verify.Variant(prog, pl, out, rep); len(diags) != 0 {
		t.Errorf("verify disagrees with the declined site: %v", diags)
	}
}
