package tune

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestEveryReplayedCandidateIsItsRun: over a tuned sweep of one scenario per
// family under the three sweep machines (sharing a store, so the second and
// third searches price mostly by replay), every candidate's skeleton
// certifies: its price replays to the full execution's Stats under the same
// machine — makespan, traffic, per-rank times — and is the number the search
// recorded, and its measurement is that execution, output and arrays
// included. A walk runner without a store executes every price, replays
// nothing and chooses the same.
func TestEveryReplayedCandidateIsItsRun(t *testing.T) {
	scenarios := workload.GenerateScenarios(workload.GenOptions{})[:9]
	if testing.Short() {
		scenarios = scenarios[:3]
	}
	for _, sc := range scenarios {
		prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ms := plan.DefaultSweep()
		for i := range ms {
			if sc.Costs != nil {
				ms[i].Costs = *sc.Costs
			}
		}
		p := Params{NP: sc.NP, FixedK: sc.K, Arrays: sc.Arrays}
		store := exec.NewMemStore()
		tuneAll := func(runner exec.Runner) []Choice {
			var out []Choice
			for _, m := range ms {
				ch, err := Tune(context.Background(), prog, m, p, runner)
				if err != nil {
					t.Fatalf("%s on %s (%s): %v", sc.Name, m.Name, runner.Engine, err)
				}
				out = append(out, ch)
			}
			return out
		}
		choices := tuneAll(exec.Runner{Store: store})
		plans := &search{sites: siteStates(prog)}
		replays := 0
		for i, ch := range choices {
			replays += ch.ReplayedRuns
			for _, c := range ch.Candidates {
				src, _, err := core.Apply(prog, plans.buildPlan(c.Decisions))
				if err != nil {
					t.Fatal(err)
				}
				p, err := store.Get(src)
				if err != nil {
					t.Fatal(err)
				}
				price, how, err := exec.Runner{Store: store}.Price(context.Background(), src, sc.NP, ms[i].Costs, ms[i].Profile)
				if err != nil || how != exec.Replayed {
					t.Fatalf("%s on %s, %v: priced candidate does not replay (err %v)", sc.Name, ch.Machine, c.Decisions, err)
				}
				replay, _, err := exec.Runner{Store: store}.Measure(context.Background(), src, sc.NP, ms[i].Costs, ms[i].Profile)
				if err != nil {
					t.Fatalf("%s on %s, %v: measure: %v", sc.Name, ch.Machine, c.Decisions, err)
				}
				run, err := p.RunBytecode(sc.NP, ms[i].Profile, ms[i].Costs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(price, run.Stats) {
					t.Errorf("%s on %s, %v: price differs from the run: %+v vs %+v", sc.Name, ch.Machine, c.Decisions, price, run.Stats)
				}
				if !reflect.DeepEqual(replay.Stats, run.Stats) || !reflect.DeepEqual(replay.OutputLines(), run.OutputLines()) {
					t.Errorf("%s on %s, %v: replay differs from the run: %+v vs %+v", sc.Name, ch.Machine, c.Decisions, replay.Stats, run.Stats)
				}
				if same, why := interp.SameOutput(run, replay); !same {
					t.Errorf("%s on %s, %v: replay differs from the run: %s", sc.Name, ch.Machine, c.Decisions, why)
				}
				if int64(run.Elapsed()) != c.PrepushNs {
					t.Errorf("%s on %s, %v: search recorded %d ns, the run takes %d ns", sc.Name, ch.Machine, c.Decisions, c.PrepushNs, int64(run.Elapsed()))
				}
			}
		}
		if choices[0].ReplayedRuns != 0 || replays == 0 {
			t.Errorf("%s: %d replays under the first machine, %d in all; want 0 and some", sc.Name, choices[0].ReplayedRuns, replays)
		}
		walk := tuneAll(exec.Runner{Engine: exec.EngineWalk})
		for i := range walk {
			if walk[i].ReplayedRuns != 0 {
				t.Errorf("%s on %s: the store-less walk runner replayed", sc.Name, walk[i].Machine)
			}
			c := choices[i]
			c.ReplayedRuns, c.SlicedRuns = 0, 0
			if !reflect.DeepEqual(c, walk[i]) {
				t.Errorf("%s on %s: measuring by replay changed the choice:\n%+v\nvs\n%+v", sc.Name, c.Machine, c, walk[i])
			}
		}
	}
}

// A hand-tiled exchange: rank 0 posts its send, refills the buffer for the
// next phase, and only then waits. That is the original's data as long as
// the send is eager (the payload is packed when it is posted) and the next
// phase's data once it is a rendezvous (the payload is read when the
// transfer starts, after the refill).
const (
	racyOriginal = `
program racy
  include 'mpif.h'
  integer a(1:512), b(1:512)
  integer ierr, me, i, j
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do i = 1, 512
    a(i) = i + me
  enddo
  if (me == 0) then
    call mpi_send(a, 512, mpi_integer, 1, 3, mpi_comm_world, ierr)
    do j = 1, 40
      do i = 1, 512
        a(i) = -i - j
      enddo
    enddo
  else
    call mpi_recv(b, 512, mpi_integer, 0, 3, mpi_comm_world, mpi_status_ignore, ierr)
  endif
  print *, b(1), b(512)
end program racy
`
	racyTiled = `
program racy
  include 'mpif.h'
  integer a(1:512), b(1:512)
  integer ierr, me, i, j, req
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do i = 1, 512
    a(i) = i + me
  enddo
  if (me == 0) then
    call mpi_isend(a, 512, mpi_integer, 1, 3, mpi_comm_world, req, ierr)
    do j = 1, 40
      do i = 1, 512
        a(i) = -i - j
      enddo
    enddo
    call mpi_wait(req, mpi_status_ignore, ierr)
  else
    call mpi_recv(b, 512, mpi_integer, 0, 3, mpi_comm_world, mpi_status_ignore, ierr)
  endif
  print *, b(1), b(512)
end program racy
`
)

// handSearch starts a search over the hand-written pair under machine m: the
// original measured, the identity registered.
func handSearch(t *testing.T, m plan.Machine, runner exec.Runner) *search {
	return handSearchOf(t, racyOriginal, m, runner)
}

// handSearchOf is handSearch from the original orig.
func handSearchOf(t *testing.T, orig string, m plan.Machine, runner exec.Runner) *search {
	t.Helper()
	res, _, err := runner.Measure(context.Background(), orig, 2, m.Costs, m.Profile)
	if err != nil {
		t.Fatal(err)
	}
	s := &search{
		ctx: context.Background(), src: orig, p: Params{NP: 2, Arrays: []string{"b"}}, machine: m, sites: []siteState{{key: "hand"}},
		maxM: 4, runner: runner, orig: res, origNs: int64(res.Elapsed()),
		measured: map[string]*cand{},
	}
	s.registerIdentity()
	return s
}

// TestRacyWinnerIsNotCertified: the tiled variant computes the original's
// data under an eager machine and the refilled buffer's under a rendezvous
// one, where it is also faster. Its recording stores to the send buffer
// while the isend is in flight, so it never certifies: it is rejected under
// both machines — the eager one included, where its data looks right — with
// that reason, and the identity plan is adopted.
func TestRacyWinnerIsNotCertified(t *testing.T) {
	eager, rendezvous := plan.MPICHGM2005(), plan.MPICHGM2005()
	eager.Profile.EagerThreshold = 1 << 20
	rendezvous.Profile.EagerThreshold = 0
	runner := exec.Runner{Store: exec.NewMemStore()}
	tiled := []plan.Decision{plan.Decision{K: 1}.Normalize()}
	for _, m := range []plan.Machine{eager, rendezvous} {
		s := handSearch(t, m, runner)
		if c := s.measure(racyTiled, tiled, false); c != nil || s.replays != 0 {
			t.Fatalf("eager threshold %d: candidate %+v after %d replays, want it rejected", m.Profile.EagerThreshold, c, s.replays)
		}
		if w := s.best(anyCand); w == nil || !w.Decisions[0].Skip {
			t.Fatalf("eager threshold %d: adopted %+v, want the identity plan", m.Profile.EagerThreshold, w)
		}
		_, _, err := runner.Measure(context.Background(), racyTiled, 2, m.Costs, m.Profile)
		if err == nil || !strings.Contains(err.Error(), "store to a element 1 while a nonblocking request on it is in flight") {
			t.Errorf("eager threshold %d: measure err = %v, want the in-flight store named", m.Profile.EagerThreshold, err)
		}
	}
}

// TestConcurrentSearchesShareOneStore: eight searches run at once over one
// shared store — two rank counts, the three sweep machines, two scenarios —
// so they record, wait for and replay each other's variants while each
// executes in the memory of its own recycler. Every choice equals the same
// search run alone over a fresh store, apart from which runs were replays.
// Meaningful under -race.
func TestConcurrentSearchesShareOneStore(t *testing.T) {
	var scenarios []workload.Scenario
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		if sc.Family == "fft" || sc.Family == "xchg" {
			scenarios = append(scenarios, sc)
		}
		if len(scenarios) == 2 {
			break
		}
	}
	ms := plan.DefaultSweep()
	type query struct {
		prog *core.Program
		sc   workload.Scenario
		m    plan.Machine
		np   int
	}
	var queries []query
	for g := 0; g < 8; g++ {
		sc := scenarios[g%2]
		prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, query{prog, sc, ms[g%3], 2 + 2*(g/4)})
	}
	tuneOne := func(q query, store exec.VariantStore) (Choice, error) {
		ch, err := Tune(context.Background(), q.prog, q.m, Params{NP: q.np, FixedK: q.sc.K, Arrays: q.sc.Arrays}, exec.Runner{Store: store})
		ch.ReplayedRuns, ch.SlicedRuns = 0, 0
		return ch, err
	}
	got := make([]Choice, len(queries))
	store := exec.NewMemStore()
	var wg sync.WaitGroup
	for g, q := range queries {
		wg.Add(1)
		go func(g int, q query) {
			defer wg.Done()
			var err error
			if got[g], err = tuneOne(q, store); err != nil {
				t.Errorf("search %d (%s under %s at np %d): %v", g, q.sc.Name, q.m.Name, q.np, err)
			}
		}(g, q)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g, q := range queries {
		want, err := tuneOne(q, exec.NewMemStore())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[g], want) {
			t.Errorf("search %d (%s under %s at np %d): concurrent choice %+v, alone %+v", g, q.sc.Name, q.m.Name, q.np, got[g], want)
		}
	}
}

// wrongData is racyOriginal's exchange with a lighter refill and another
// payload: faster, and wrong.
var wrongData = strings.NewReplacer("a(i) = i + me", "a(i) = 2*i + me", "do j = 1, 40", "do j = 1, 4").Replace(racyOriginal)

// TestWrongDataIsNeverAdopted: a candidate that is faster but computes other
// data is priced like any other — its slice knows nothing of data — and
// ranks first, but the full measurement that proves the adopted plan finds
// the difference: the candidate is dropped and the search falls back to the
// next best, the identity plan.
func TestWrongDataIsNeverAdopted(t *testing.T) {
	for _, m := range plan.Builtin() {
		s := handSearchOf(t, racyOriginal, m, exec.Runner{Store: exec.NewMemStore()})
		c := s.measure(wrongData, []plan.Decision{plan.Decision{K: 1}.Normalize()}, false)
		if c == nil || s.slices != 1 || c.Speedup <= 1 || s.best(anyCand) != c {
			t.Fatalf("%s: priced %+v after %d slices; want a faster candidate, sliced, ranked first", m.Name, c, s.slices)
		}
		w, err := s.proven(anyCand)
		if err != nil {
			t.Fatal(err)
		}
		if c.Identical || !c.refuted || w == nil || !w.Decisions[0].Skip {
			t.Fatalf("%s: adopted %+v (the wrong candidate identical %v, refuted %v), want the identity plan", m.Name, w, c.Identical, c.refuted)
		}
	}
}
