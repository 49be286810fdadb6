package session_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/session"
	"repro/internal/tune"
	"repro/internal/workload"
)

func testSource() string {
	return workload.DirectSource(workload.DirectParams{NX: 4096, NP: 4})
}

// TestPlanMemoHitOnRepeatQuery: the second identical query — and a query
// whose source differs only in a comment, the same tuning problem — must
// come from the memo: same plan, same fingerprint, no new compiled
// variants, no search.
func TestPlanMemoHitOnRepeatQuery(t *testing.T) {
	s, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := session.Query{Source: testSource(), Machine: "mpich-gm-2005", NP: 4}

	first, err := s.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.MemoHit {
		t.Fatal("cold query reported a memo hit")
	}
	if first.Choice.Plan == nil {
		t.Fatal("cold query returned no plan")
	}
	compiled := s.Store().Stats().Compiled
	if compiled == 0 {
		t.Fatal("cold query compiled nothing")
	}

	lines := strings.SplitN(testSource(), "\n", 2)
	for round, src := range []string{testSource(), lines[0] + " ! incidental\n" + lines[1]} {
		q.Source = src
		again, err := s.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if !again.MemoHit {
			t.Fatalf("round %d: repeat query was not served from the memo", round)
		}
		if again.Choice.Plan.Key() != first.Choice.Plan.Key() {
			t.Fatalf("round %d: memoized plan differs from the tuned plan", round)
		}
		if again.Fingerprint != first.Fingerprint {
			t.Fatalf("round %d: fingerprint unstable across identical queries", round)
		}
	}
	if got := s.Store().Stats().Compiled; got != compiled {
		t.Fatalf("repeat queries compiled %d new variants, want 0", got-compiled)
	}
	if st := s.Stats(); st.Memo.Hits != 2 {
		t.Fatalf("session stats = %+v, want two memo hits", st)
	}
}

// TestMemoKeySplitsOnMachineModel: the memo keys on the machine model by
// value, not by name. Tuning direct/nx1024/np4/K256 on mpich-gm-2005 with the
// scenario's heavy cost model must not answer the same machine name with the
// default cost model: that query misses and reports what a fresh search
// measures (original 260 235 ns), not the heavy model's 272 523 ns.
func TestMemoKeySplitsOnMachineModel(t *testing.T) {
	var sc workload.Scenario
	for _, c := range workload.GenerateScenarios(workload.GenOptions{}) {
		if c.Name == "direct/nx1024/np4/K256" {
			sc = c
		}
	}
	if sc.Costs == nil {
		t.Fatal("direct/nx1024/np4/K256 with a cost override not in the corpus")
	}
	p := tune.Params{NP: sc.NP, FixedK: sc.K, Arrays: sc.Arrays}
	heavy, light := plan.MPICHGM2005(), plan.MPICHGM2005()
	heavy.Costs, light.Costs = *sc.Costs, interp.DefaultCosts()
	tuneOn := func(s *session.Session, m plan.Machine) *session.Result {
		t.Helper()
		prog, err := s.Analyze(sc.Source, int64(sc.NP))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Tune(prog, m, p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	s, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := tuneOn(s, heavy); res.MemoHit || res.Choice.OriginalNs != 272523 {
		t.Fatalf("heavy costs: memo hit %v, original %d ns; want a fresh search at 272523 ns", res.MemoHit, res.Choice.OriginalNs)
	}
	got := tuneOn(s, light)
	if got.MemoHit || got.Choice.OriginalNs != 260235 {
		t.Fatalf("default costs: memo hit %v, original %d ns; want a miss at 260235 ns", got.MemoHit, got.Choice.OriginalNs)
	}
	fresh, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := tuneOn(fresh, light)
	got.Choice.ReplayedRuns, want.Choice.ReplayedRuns = 0, 0
	got.Choice.SlicedRuns, want.Choice.SlicedRuns = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("default costs after heavy costs differ from a fresh search:\n%+v\nvs\n%+v", got, want)
	}
}

// TestStatsCountReplayedRuns: the second machine's search of one program
// finds the variants the first executed, measures them by replay, and the
// session says so; a memo hit adds nothing.
func TestStatsCountReplayedRuns(t *testing.T) {
	s, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := session.Query{Source: testSource(), Machine: "mpich-gm-2005", NP: 4}
	if _, err := s.Plan(q); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ReplayedRuns != 0 {
		t.Fatalf("first search of a fresh session replayed: %+v", st)
	}
	q.Machine = "mpich-tcp-2005"
	res, err := s.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if res.Choice.ReplayedRuns == 0 || st.ReplayedRuns != int64(res.Choice.ReplayedRuns) {
		t.Fatalf("second machine: choice replayed %d; stats %+v", res.Choice.ReplayedRuns, st)
	}
	hit, err := s.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.MemoHit || hit.Choice.ReplayedRuns != 0 || s.Stats().ReplayedRuns != st.ReplayedRuns {
		t.Fatalf("memo hit counted runs: choice %d, stats %+v", hit.Choice.ReplayedRuns, s.Stats())
	}
}

// TestPlanValidatesQuery: missing source, rank count, or an unknown
// machine must error instead of searching garbage.
func TestPlanValidatesQuery(t *testing.T) {
	s, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []session.Query{
		{Machine: "mpich-gm-2005", NP: 4},
		{Source: testSource(), Machine: "mpich-gm-2005"},
		{Source: testSource(), Machine: "no-such-machine", NP: 4},
	}
	for i, q := range bad {
		if _, err := s.Plan(q); !errors.Is(err, session.ErrQuery) {
			t.Errorf("bad query %d: err = %v, want an ErrQuery", i, err)
		}
	}
	if _, err := s.Plan(bad[2]); !errors.Is(err, plan.ErrUnknownMachine) {
		t.Errorf("unknown machine: err = %v, want plan.ErrUnknownMachine in the chain", err)
	}
	// A well-formed query whose search fails (here a run-time bounds error
	// in the original program) is not the query's fault.
	lateFail := `
program p
  implicit none
  include 'mpif.h'
  integer, parameter :: np = 4
  integer as(1:32), ar(1:32), i, ierr
  do i = 1, 32
    as(i) = i
  enddo
  call mpi_alltoall(as, 8, mpi_integer, ar, 8, mpi_integer, mpi_comm_world, ierr)
  print *, ar(33)
end program p
`
	_, err = s.Plan(session.Query{Source: lateFail, Machine: "mpich-gm-2005", NP: 4})
	if err == nil || errors.Is(err, session.ErrQuery) {
		t.Errorf("run-time failure of a well-formed query: err = %v, want a non-query error", err)
	}
}

// TestSessionsAreIsolated: two sessions in one process share no counters —
// the satellite fix for the old process-global cache reset races.
func TestSessionsAreIsolated(t *testing.T) {
	a, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := session.Query{Source: testSource(), Machine: "mpich-gm-2005", NP: 4}
	if _, err := a.Plan(q); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Store != (exec.StoreStats{}) || st.Memo.Entries != 0 {
		t.Fatalf("session b saw session a's traffic: %+v", st)
	}
	// The same query against b misses b's memo (fresh search).
	res, err := b.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoHit {
		t.Fatal("fresh session hit a memo it never filled")
	}
}

// TestSessionSharedDiskStore: a session over a warm disk store re-tunes
// (the memo is in-process) but recompiles nothing — every variant the
// search measures is already store knowledge.
func TestSessionSharedDiskStore(t *testing.T) {
	dir := t.TempDir()
	q := session.Query{Source: testSource(), Machine: "mpich-gm-2005", NP: 4}

	cold, err := exec.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := session.New(session.Options{Store: cold})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s1.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats().Compiled == 0 {
		t.Fatal("cold session compiled nothing")
	}

	warm, err := exec.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := session.New(session.Options{Store: warm})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s2.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Compiled != 0 {
		t.Fatalf("warm session compiled %d variants, want 0 (stats %+v)", st.Compiled, st)
	}
	if st.DiskHits == 0 {
		t.Fatal("warm session recorded no disk hits")
	}
	if second.Choice.Plan.Key() != first.Choice.Plan.Key() {
		t.Fatal("warm session tuned to a different plan")
	}
}

// TestAnalyzeCachedPerSession: repeat Analyze over one source returns the
// identical Program, so core.Apply's plan-key memo is shared across
// queries.
func TestAnalyzeCachedPerSession(t *testing.T) {
	s, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := testSource()
	p1, err := s.Analyze(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Analyze(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("repeat analysis returned a distinct Program")
	}
	p3, err := s.Analyze(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("distinct rank counts share one analysis")
	}
}

// TestVerifyOwnsTheLedger: Verify is the one place a variant is applied,
// hashed, looked up, proven and marked — a repeat answers Known from the
// store's ledger, a different plan is a different pair, and an unappliable
// plan is an error, not a verdict.
func TestVerifyOwnsTheLedger(t *testing.T) {
	s, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := s.Analyze(testSource(), 4)
	if err != nil {
		t.Fatal(err)
	}
	pl := plan.Uniform(plan.Decision{K: 256})
	first, err := s.Verify(prog, pl)
	if err != nil || first.Known || len(first.Diags) != 0 {
		t.Fatalf("first verify: %+v, %v; want a fresh clean verdict", first, err)
	}
	again, err := s.Verify(prog, pl)
	if err != nil || !again.Known || again.Key != first.Key {
		t.Fatalf("repeat verify: %+v, %v; want Known under the same key", again, err)
	}
	if !s.Store().Verified(first.Key) {
		t.Error("clean verdict not recorded in the store's ledger")
	}
	other, err := s.Verify(prog, plan.Uniform(plan.Identity()))
	if err != nil || other.Known || other.Key == first.Key {
		t.Errorf("identity plan: %+v, %v; want a fresh verdict on a different pair", other, err)
	}
	stale := plan.Uniform(plan.Decision{K: 256})
	stale.Set("999:1", plan.Decision{K: 4})
	if _, err := s.Verify(prog, stale); err == nil {
		t.Error("a plan naming a site the program lacks verified instead of erroring")
	}
}

// TestWarmPlanAllocs: a warm Plan — analysis-cache hit, the program's kept
// fingerprint, memo hit — allocates a bounded number of objects. The bound
// is twice the count measured when the fingerprint became a property of
// the analyzed program (warmPlanAllocs); re-printing the AST and formatting
// the sites on every query took 115.
func TestWarmPlanAllocs(t *testing.T) {
	const warmPlanAllocs = 13
	s, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := session.Query{Source: testSource(), Machine: "mpich-gm-2005", NP: 4}
	if _, err := s.Plan(q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if res, err := s.Plan(q); err != nil || !res.MemoHit {
			t.Fatalf("warm query: hit %v, err %v", res != nil && res.MemoHit, err)
		}
	})
	t.Logf("%.0f allocations per warm Plan", allocs)
	if allocs > 2*warmPlanAllocs {
		t.Errorf("a warm Plan allocates %.0f objects, want at most %d", allocs, 2*warmPlanAllocs)
	}
}

// TestPlanRetainsNoRecycledMemory: a cold query's search executes its
// variants in arrays and payloads lent by a recycler the search owns, and
// once Plan returns none of that memory is reachable — the session keeps
// programs, skeletons (digests) and choices only. With every allocation
// sampled, the heap profile after two collections holds no live object
// allocated under an interp.Recycler method, though the query allocated
// some there.
func TestPlanRetainsNoRecycledMemory(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	s, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := workload.GenerateScenarios(workload.GenOptions{})[0]
	if _, err := s.Plan(session.Query{Source: sc.Source, Machine: "mpich-gm-2005", NP: sc.NP, FixedK: sc.K, Arrays: sc.Arrays}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	var prof bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&prof, 1); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(s)
	// debug=1 records: "inuse_objects: inuse_bytes [allocs: alloc_bytes] @
	// pcs", then one "#\t<pc>\t<func>+<off>\t<file:line>" line per frame.
	var live, allocated int64
	for _, rec := range strings.Split(prof.String(), "\n\n") {
		if !strings.Contains(rec, "interp.(*Recycler).") {
			continue
		}
		var inObj, inBytes, allocObj, allocBytes int64
		if _, err := fmt.Sscanf(rec, "%d: %d [%d: %d]", &inObj, &inBytes, &allocObj, &allocBytes); err != nil {
			t.Fatalf("heap profile record %q: %v", strings.SplitN(rec, "\n", 2)[0], err)
		}
		live += inBytes
		allocated += allocBytes
	}
	t.Logf("allocated under the recycler: %d B; live after Plan: %d B", allocated, live)
	if allocated == 0 {
		t.Fatal("the heap profile shows no allocation under the recycler: the check proves nothing")
	}
	if live != 0 {
		t.Errorf("%d B allocated under the recycler are still reachable after Plan returned", live)
	}
}

// BenchmarkPlanCold is benchmark/'s plan-cold workload in one iteration: a
// fresh session answers the canonical corpus's first scenario of each family
// but xchg under the three sweep machines, every query a search. Its CPU
// profile is what docs/profile-layers.md's plan-cold table reads:
//
//	go test ./internal/session -run '^$' -bench PlanCold -benchtime 12x -cpuprofile cpu.pprof
//	go tool pprof -tags cpu.pprof
func BenchmarkPlanCold(b *testing.B) {
	seen := map[string]bool{}
	var qs []session.Query
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		if seen[sc.Family] || sc.Family == "xchg" {
			continue
		}
		seen[sc.Family] = true
		for _, m := range plan.DefaultSweep() {
			qs = append(qs, session.Query{Source: sc.Source, Machine: m.Name, NP: sc.NP, FixedK: sc.K, Arrays: sc.Arrays})
		}
	}
	for i := 0; i < b.N; i++ {
		s, err := session.New(session.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range qs {
			if _, err := s.Plan(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}
