package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ftn"
	"repro/internal/plan"
	xform "repro/internal/transform"
	"repro/internal/verify"
	"repro/internal/workload"
)

// knobPlans is variant-build's six uniform plans: the fixed decision, every
// wait / send-order / interchange knob, and skip.
func knobPlans(k int64) []*plan.Plan {
	return []*plan.Plan{
		plan.Uniform(plan.Decision{K: k}),
		plan.Uniform(plan.Decision{K: k, Wait: plan.WaitPerTile}),
		plan.Uniform(plan.Decision{K: k, SendOrder: plan.SendSequential}),
		plan.Uniform(plan.Decision{K: k, Interchange: plan.InterchangeOff}),
		plan.Uniform(plan.Decision{K: k, Interchange: plan.InterchangeOn}),
		plan.Uniform(plan.Decision{Skip: true}),
	}
}

// divergentPlans gives each site of a multi-site program its own decision:
// every rotation of (default, skip, per-tile wait + interchange on, K=1).
func divergentPlans(p *core.Program, k int64) []*plan.Plan {
	decs := []plan.Decision{
		{K: k},
		{Skip: true},
		{K: k, Wait: plan.WaitPerTile, Interchange: plan.InterchangeOn},
		{K: 1, SendOrder: plan.SendSequential},
	}
	var out []*plan.Plan
	for rot := range decs {
		pl := plan.Uniform(plan.Decision{K: k})
		for i := range p.Sites {
			pl.Set(p.Sites[i].Key(), decs[(rot+i)%len(decs)].Normalize())
		}
		out = append(out, pl)
	}
	return out
}

// sameApply requires Apply on the memo-carrying and the memo-less Program to
// agree byte for byte and report for report (notes included).
func sameApply(t *testing.T, what string, withMemo, without *core.Program, pl *plan.Plan) {
	t.Helper()
	outM, repM, errM := core.Apply(withMemo, pl)
	outN, repN, errN := core.Apply(without, pl)
	if (errM == nil) != (errN == nil) || (errM != nil && errM.Error() != errN.Error()) {
		t.Fatalf("%s plan %s: errors differ: memo %v, no memo %v", what, pl.Key(), errM, errN)
	}
	if outM != outN {
		t.Errorf("%s plan %s: sources differ with and without the proof memo", what, pl.Key())
	}
	if !reflect.DeepEqual(repM, repN) {
		t.Errorf("%s plan %s: reports differ\nmemo:\n%s\nno memo:\n%s", what, pl.Key(), repM, repN)
	}
}

// TestProofMemoDifferential: memo ≡ no memo. Over the 40-program corpus ×
// variant-build's six knob plans, per-site divergent plans on the multi-site
// programs, and plans carrying their own NP, a Program that looks its proofs
// up returns what a Program that derives them every time returns.
func TestProofMemoDifferential(t *testing.T) {
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{Seed: 0}) {
		withMemo, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		without, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		core.DropProofs(without)

		// Analyze filled the memo; the K=1 probe replayed without it must
		// harvest the same site facts.
		if probe := probeSites(t, without); !reflect.DeepEqual(withMemo.Sites, probe) {
			t.Errorf("%s: analysed sites\n%+v\nthe memo-less probe\n%+v", sc.Name, withMemo.Sites, probe)
		}

		plans := knobPlans(sc.K)
		if len(withMemo.Sites) > 1 {
			plans = append(plans, divergentPlans(withMemo, sc.K)...)
		}
		own := plan.Uniform(plan.Decision{K: sc.K, Interchange: plan.InterchangeOn})
		own.NP = int64(sc.NP)
		other := plan.Uniform(plan.Decision{K: sc.K})
		other.NP = int64(sc.NP) / 2
		plans = append(plans, own, other)
		for _, pl := range plans {
			sameApply(t, sc.Name, withMemo, without, pl)
		}
	}
}

// npFreeSrc has no np parameter and a run-time sendcount, so it transforms
// under whatever rank count the caller names.
const npFreeSrc = `
program q
  implicit none
  include 'mpif.h'
  integer, parameter :: m = 8
  integer, parameter :: sz = 8
  integer as(1:m, 1:sz)
  integer ar(1:m, 1:sz)
  integer inode, im, ierr, nprocs, cnt

  call mpi_init(ierr)
  call mpi_comm_size(mpi_comm_world, nprocs, ierr)
  cnt = m*sz/nprocs
  do inode = 1, sz
    do im = 1, m
      as(im, inode) = im*10 + inode
    enddo
  enddo
  call mpi_alltoall(as, cnt, mpi_integer, ar, cnt, mpi_integer, mpi_comm_world, ierr)
  call mpi_finalize(ierr)
end program q
`

// TestProofMemoKeepsRankCountsApart: one Program, two plans that carry
// different NPs. Each gets the transformation of its own rank count, in
// either order, the same as without a memo.
func TestProofMemoKeepsRankCountsApart(t *testing.T) {
	withMemo, err := core.Analyze(npFreeSrc, core.AnalyzeOptions{NP: 4})
	if err != nil {
		t.Fatal(err)
	}
	without, _ := core.Analyze(npFreeSrc, core.AnalyzeOptions{NP: 4})
	core.DropProofs(without)
	for _, np := range []int64{2, 4, 8, 2, 0} {
		for _, ic := range []plan.Interchange{plan.InterchangeOff, plan.InterchangeOn} {
			pl := plan.Uniform(plan.Decision{K: 1, Interchange: ic})
			pl.NP = np
			sameApply(t, fmt.Sprintf("np=%d", np), withMemo, without, pl)
			_, rep, _ := core.Apply(withMemo, pl)
			want := np
			if want == 0 {
				want = 4
			}
			if rep.TransformedCount() != 1 || rep.Sites[0].Result.NP != want {
				t.Errorf("plan np=%d: %s", np, rep)
			}
		}
	}
}

// sameVerdicts compares what two analyses of one file concluded about a
// site. Both were located in the same AST, so pointers compare equal and
// DeepEqual only has the freshly built dependence records to walk.
func sameVerdicts(t *testing.T, what string, memo, fresh *analysis.Opportunity) {
	t.Helper()
	type verdicts struct {
		Pattern               analysis.Pattern
		NodeCase              analysis.NodeLoopCase
		NodeLoopLevel         int
		InterchangeOK         bool
		InterchangeWith       int
		InterchangeBlockElems int64
		Notes                 []string
		Reorder               bool
	}
	of := func(op *analysis.Opportunity) verdicts {
		return verdicts{op.Pattern, op.NodeCase, op.NodeLoopLevel, op.InterchangeOK, op.InterchangeWith,
			op.InterchangeBlockElems, op.Notes, xform.ReorderSafe(op)}
	}
	if m, f := of(memo), of(fresh); !reflect.DeepEqual(m, f) {
		t.Errorf("%s: memoised %+v, fresh %+v", what, m, f)
	}
	if !reflect.DeepEqual(memo.SafeRefs, fresh.SafeRefs) || !reflect.DeepEqual(memo.WriteRefs, fresh.WriteRefs) {
		t.Errorf("%s: safe/write references differ", what)
	}
	if !reflect.DeepEqual(memo.CopyLoop, fresh.CopyLoop) {
		t.Errorf("%s: copy loops differ: %+v vs %+v", what, memo.CopyLoop, fresh.CopyLoop)
	}
}

// TestMemoisedVerdictsSurviveEarlierRewrites: proofs are facts about the
// original sites, so rewriting one site must not change what a fresh analysis
// concludes about those still waiting. After each site's rewrite, a fresh
// FindOpportunities on the partially rewritten file agrees with the verdicts
// the memo recorded on the pristine one — and the waiting sites' entries are
// found (a rewrite elsewhere does not move their key), while an interchanged
// nest is a new entry.
func TestMemoisedVerdictsSurviveEarlierRewrites(t *testing.T) {
	const probeKey = "test-probe"
	multi := 0
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{Seed: 0}) {
		if sc.Family != "multi" {
			continue
		}
		multi++
		for _, topts := range []xform.Options{{K: sc.K}, {K: 1, PerTileWait: true}, {K: sc.K, NoStagger: true}} {
			file := ftn.MustParse(sc.Source)
			memo := &analysis.ProofMemo{}
			for round := 0; ; round++ {
				what := fmt.Sprintf("%s %+v round %d", sc.Name, topts, round)
				mops, merrs := analysis.FindOpportunities(file, analysis.Options{Proofs: memo})
				fops, ferrs := analysis.FindOpportunities(file, analysis.Options{})
				if len(mops) != len(fops) || !reflect.DeepEqual(merrs, ferrs) {
					t.Fatalf("%s: %d sites / %v with the memo, %d / %v fresh", what, len(mops), merrs, len(fops), ferrs)
				}
				if len(mops) == 0 {
					if round < 2 {
						t.Fatalf("%s: expected at least two sites", what)
					}
					break
				}
				for i := range mops {
					sameVerdicts(t, fmt.Sprintf("%s site %s", what, mops[i].Call.Stmt.Pos()), mops[i], fops[i])
					missed := false
					analysis.ProveOnce(mops[i], probeKey, func() bool { missed = true; return true })
					if missed != (round == 0) {
						t.Errorf("%s site %s: entry missed=%v in round %d", what, mops[i].Call.Stmt.Pos(), missed, round)
					}
				}
				op := mops[0]
				op.InterchangeOK = false // as applyPlan does when it takes the subset-send path
				if _, err := xform.Apply(op, topts); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
		}
	}
	if multi == 0 {
		t.Fatal("no multi-site scenario in the corpus")
	}

	// An interchanged nest is looked up under its own entry.
	file := ftn.MustParse(npFreeSrc)
	memo := &analysis.ProofMemo{}
	find := func(np int) *analysis.Opportunity {
		ops, errs := analysis.FindOpportunities(file, analysis.Options{NP: np, Proofs: memo})
		if len(ops) != 1 {
			t.Fatalf("ops=%d errs=%v", len(ops), errs)
		}
		return ops[0]
	}
	misses := func(op *analysis.Opportunity) bool {
		missed := false
		analysis.ProveOnce(op, probeKey, func() bool { missed = true; return true })
		return missed
	}
	op := find(4)
	if !op.InterchangeOK {
		t.Fatal("interchange should be legal")
	}
	if !misses(op) || misses(find(4)) {
		t.Error("a site's entry must miss once and then hit")
	}
	if !misses(find(2)) {
		t.Error("another rank count must not read np=4's entry")
	}
	if err := xform.Interchange(op); err != nil {
		t.Fatal(err)
	}
	after := find(4)
	if !misses(after) {
		t.Error("the interchanged nest read the original nest's entry")
	}
	if after.NodeCase != analysis.NodeLoopInner {
		t.Errorf("after interchange the node loop is %v, want inner", after.NodeCase)
	}
}

// TestConcurrentApplySharesProofs: a Program is documented safe for
// concurrent Apply calls and harness workers share one per scenario. Eight
// goroutines push distinct plans — plan-carried NPs and interchanges, so the
// proofs are missing and get derived and stored concurrently — through one
// Program; each result equals a serial run's. Not skipped under -short: CI's
// -race run is where this test earns its keep.
func TestConcurrentApplySharesProofs(t *testing.T) {
	var srcs []string
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{Seed: 0})[:9] {
		if sc.Family == "multi" || sc.Family == "fft" || sc.Family == "indirect" {
			srcs = append(srcs, sc.Source)
		}
	}
	srcs = append(srcs, npFreeSrc)
	var plans []*plan.Plan
	for i, d := range []plan.Decision{
		{K: 1}, {K: 2, Interchange: plan.InterchangeOn}, {K: 4, Wait: plan.WaitPerTile},
		{K: 2, SendOrder: plan.SendSequential}, {K: 4, Interchange: plan.InterchangeOff},
		{K: 1, Interchange: plan.InterchangeOn}, {K: 8}, {Skip: true},
	} {
		pl := plan.Uniform(d)
		pl.NP = []int64{0, 4, 2}[i%3]
		plans = append(plans, pl)
	}
	for _, src := range srcs {
		type result struct {
			out string
			rep *core.Report
			err error
		}
		serial, err := core.Analyze(src, core.AnalyzeOptions{NP: 4})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]result, len(plans))
		for i, pl := range plans {
			want[i].out, want[i].rep, want[i].err = core.Apply(serial, pl)
		}
		shared, _ := core.Analyze(src, core.AnalyzeOptions{NP: 4})
		got := make([]result, len(plans))
		var wg sync.WaitGroup
		for i := range plans {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i].out, got[i].rep, got[i].err = core.Apply(shared, plans[i])
			}(i)
		}
		wg.Wait()
		for i := range plans {
			if got[i].out != want[i].out || !reflect.DeepEqual(got[i].rep, want[i].rep) ||
				(got[i].err == nil) != (want[i].err == nil) {
				t.Errorf("plan %s: concurrent Apply differs from the serial one", plans[i].Key())
			}
		}
	}
}

// illegalInterchangeSrc: the recurrence on t has direction (<, >) when d = 1,
// so swapping the inode and im loops would reverse it; with d = 0 the
// direction is (<, =) and the interchange is legal. The loop nest's text is
// the same either way — only the constant differs.
func illegalInterchangeSrc(d int) string {
	return fmt.Sprintf(`
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: m = 8
  integer, parameter :: sz = 4
  integer, parameter :: np = 4
  integer, parameter :: d = %d
  integer as(1:m, 1:sz)
  integer ar(1:m, 1:sz)
  integer t(0:m + 1, 0:sz)
  integer inode, im, ierr

  do inode = 1, sz
    do im = 1, m
      t(im, inode) = t(im + d, inode - 1) + im
      as(im, inode) = t(im, inode)*2
    enddo
  enddo
  call mpi_alltoall(as, m*sz/np, mpi_integer, ar, m*sz/np, mpi_integer, mpi_comm_world, ierr)
end program p
`, d)
}

// nonSlabSrc: with s = 0 the copy loop fills whole slabs of as in order; with
// s = 1 every row is rotated by one element, which is not a slab mapping.
func nonSlabSrc(s int) string {
	return fmt.Sprintf(`
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: n = 4
  integer, parameter :: np = 4
  integer, parameter :: s = %d
  integer as(1:n, 1:n, 1:n)
  integer ar(1:n, 1:n, 1:n)
  integer at(1:16)
  integer iy, ix, tx, ty, ierr

  do iy = 1, n
    call fill(iy, at)
    do ix = 1, 16
      tx = mod(ix - 1 + s, n) + 1
      ty = (ix - 1)/n + 1
      as(tx, ty, iy) = at(ix)
    enddo
  enddo
  call mpi_alltoall(as, 16, mpi_integer, ar, 16, mpi_integer, mpi_comm_world, ierr)
end program p

subroutine fill(iy, at)
  integer iy
  integer at(*)
  integer i
  do i = 1, 16
    at(i) = i*100 + iy
  enddo
end subroutine fill
`, s)
}

// TestVerifyDoesNotTrustProofMemo: "the validator must not trust the
// transformer's cached facts", enforced. A Program is handed the proofs of a
// sibling source for which they are true — an interchange that is legal
// there and illegal here, a copy loop that is a slab mapping there and not
// here. Apply believes them and emits the illegal variant; verify.Variant,
// which re-parses and re-proves from the source alone, reports it.
func TestVerifyDoesNotTrustProofMemo(t *testing.T) {
	cases := []struct {
		name     string
		src      func(int) string
		pl       *plan.Plan
		wantCode string
		wantMsg  string
	}{
		{"illegal interchange claimed legal", illegalInterchangeSrc,
			plan.Uniform(plan.Decision{K: 1, Interchange: plan.InterchangeOn}),
			verify.CodeInterchangeIllegal, "do not re-prove its legality"},
		{"non-slab copy claimed a slab", nonSlabSrc,
			plan.Uniform(plan.Decision{K: 1}),
			verify.CodeTileCoverage, "re-analysis of the original finds no opportunity there"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			honest, err := core.Analyze(c.src(0), core.AnalyzeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sibling, rep, err := core.Apply(honest, c.pl)
			var diags []verify.Diagnostic
			if err == nil {
				diags = verify.Variant(honest, c.pl, sibling, rep)
			}
			if err != nil || rep.TransformedCount() != 1 || len(diags) != 0 {
				t.Fatalf("the sibling must transform and verify: err=%v diags=%v\n%s", err, diags, rep)
			}

			// Unpoisoned, the transformer itself declines.
			victim, err := core.Analyze(c.src(1), core.AnalyzeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			declined, rep, err := core.Apply(victim, c.pl)
			if err == nil {
				diags = verify.Variant(victim, c.pl, declined, rep)
			}
			if err != nil || len(diags) != 0 {
				t.Fatalf("err=%v diags=%v", err, diags)
			}
			if rep.AnyInterchanged() || (c.wantCode == verify.CodeTileCoverage && rep.TransformedCount() != 0) {
				t.Fatalf("with true proofs the illegal variant must not be emitted:\n%s", rep)
			}

			poisoned, _ := core.Analyze(c.src(1), core.AnalyzeOptions{})
			core.ShareProofs(poisoned, honest)
			out, rep, err := core.Apply(poisoned, c.pl)
			if err != nil || rep.TransformedCount() != 1 {
				t.Fatalf("the poisoned Apply should have believed the memo: err=%v\n%s", err, rep)
			}
			if c.wantCode == verify.CodeInterchangeIllegal && !rep.AnyInterchanged() {
				t.Fatalf("the poisoned Apply did not interchange:\n%s", rep)
			}
			diags = verify.Variant(poisoned, c.pl, out, rep)
			found := false
			for _, d := range diags {
				if d.Code == c.wantCode && strings.Contains(d.Msg, c.wantMsg) {
					found = true
				}
			}
			if !found {
				t.Errorf("verify.Variant accepted a variant built on false proofs; diagnostics: %v", diags)
			}
		})
	}
}
