package harness

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestReplayedChecksCatchAWrongOriginal: the machines after the first check
// the tuner's original against a replay of the first machine's walk, and a
// replay still fails the check on a makespan 1 ns off, or on observables
// that are not the walk's.
func TestReplayedChecksCatchAWrongOriginal(t *testing.T) {
	// Wave 1 and each machine's search of a walk-checked sweep, by hand.
	sc := smallCorpus(t, 1)[0]
	sess := engineSession(t, exec.Default)
	st := newScenarioState(sc, plan.DefaultSweep(), sess, &exec.Runner{Engine: exec.EngineWalk, Store: sess.Store()}, nil)
	st.prepare()
	for mi := range st.machines {
		st.runMachine(mi)
	}
	if !st.clean() {
		t.Fatalf("wave 1 failed: %q %q %q", st.prepErr, st.runErr, st.mismatch)
	}
	for mi := range st.machines {
		if st.tuneMachine(mi); st.tuned[mi] == nil {
			t.Fatalf("%s: tune: %s", st.machines[mi].Name, st.tuneErr[mi])
		}
	}
	for mi, m := range st.machines {
		name, c := m.Name, st.choices[mi]
		var tr TunedRun
		if err := st.tieredCheck(mi, c, &tr); err != nil {
			t.Fatalf("%s: unmodified choice: %v", name, err)
		}
		if mi == 0 {
			continue
		}
		if tr.WalkReplays < 1 {
			t.Fatalf("%s: original checked by %d walk runs, %d replays; want a replay", name, tr.WalkRuns, tr.WalkReplays)
		}
		if tr.WalkReplays == 2 {
			// The winner, too, is a replay of an earlier machine's walk.
			c.PrepushNs++
			err := st.tieredCheck(mi, c, &TunedRun{})
			if err == nil || !strings.Contains(err.Error(), "winner makespan") || !strings.Contains(err.Error(), "replayed") {
				t.Errorf("%s: winner makespan raised by 1 ns: err = %v, want a replayed makespan mismatch", name, err)
			}
			c.PrepushNs--
		}
		c.OriginalNs++
		err := st.tieredCheck(mi, c, &TunedRun{})
		if err == nil || !strings.Contains(err.Error(), "original makespan") || !strings.Contains(err.Error(), "replayed") {
			t.Errorf("%s: original makespan raised by 1 ns: err = %v, want a replayed makespan mismatch", name, err)
		}
		c.OriginalNs--
		good := st.orig[mi]
		wrong := *good
		wrong.Output = append([][]string{{"a line the walk never printed"}}, good.Output[1:]...)
		st.orig[mi] = &wrong
		err = st.tieredCheck(mi, c, &TunedRun{})
		st.orig[mi] = good
		if err == nil || !strings.Contains(err.Error(), "observables diverge") {
			t.Errorf("%s: changed sweep-engine output: err = %v, want an observables mismatch", name, err)
		}
	}
}

// TestFixedRowMustAgreeWithTheSearch: a fixed row whose original or fixed-K
// makespan is not the one the search measured for the same source fails its
// scenario at settle, with both numbers named, whether or not a check engine
// is configured; an agreeing row settles.
func TestFixedRowMustAgreeWithTheSearch(t *testing.T) {
	sc := smallCorpus(t, 1)[0]
	sess := engineSession(t, exec.Default)
	st := newScenarioState(sc, plan.DefaultSweep(), sess, nil, nil)
	st.prepare()
	for mi := range st.machines {
		st.runMachine(mi)
	}
	if !st.clean() {
		t.Fatalf("wave 1 failed: %q %q %q", st.prepErr, st.runErr, st.mismatch)
	}
	for mi := range st.machines {
		if st.tuneMachine(mi); st.tuned[mi] == nil {
			t.Fatalf("%s: tune: %s", st.machines[mi].Name, st.tuneErr[mi])
		}
	}
	for mi, m := range st.machines {
		tr, good := st.tuned[mi], st.profiles[mi]
		for _, c := range []struct {
			what  string
			bump  func(*ProfileRun)
			wants []string
		}{
			{"original", func(pr *ProfileRun) { pr.OriginalNs++ }, []string{
				"original makespan", fmt.Sprint(good.OriginalNs + 1), fmt.Sprint(good.OriginalNs)}},
			{"fixed variant", func(pr *ProfileRun) { pr.PrepushNs-- }, []string{
				fmt.Sprintf("fixed K=%d makespan", sc.K), fmt.Sprint(good.PrepushNs - 1), fmt.Sprint(good.PrepushNs)}},
		} {
			c.bump(&st.profiles[mi])
			st.settle(mi)
			out := st.assemble(true)
			for _, want := range c.wants {
				if !strings.Contains(out.Err, want) {
					t.Errorf("%s: %s 1 ns off: scenario error %q, want it to name %q", m.Name, c.what, out.Err, want)
				}
			}
			if out.Tuned != nil {
				t.Errorf("%s: %s 1 ns off: the tuned rows stayed", m.Name, c.what)
			}
			st.profiles[mi], st.tuned[mi], st.tuneErr[mi] = good, tr, ""
		}
		if st.settle(mi); st.tuned[mi] == nil {
			t.Errorf("%s: agreeing row dropped: %s", m.Name, st.tuneErr[mi])
		}
	}
}

// TestFencedOriginalsWalkPerMachine: an original whose walk skeleton no
// replay may stand for elsewhere — it reads mpi_wtime, or receives with any
// tag — is walked once under every machine, and walk_runs says so; so are
// its variants, which inherit the fence. An original that posts a
// nonblocking send and touches no in-flight buffer certifies: it is walked
// once, and so is each distinct winner. One that stores to its send buffer
// before the wait is refused with that reason.
func TestFencedOriginalsWalkPerMachine(t *testing.T) {
	base := smallCorpus(t, 1)[0]
	const exchange = `  peer = ieor(me, 1)
  buf(1) = me
`
	isend := func(between string) string {
		return exchange + `  call mpi_isend(buf(1), 1, mpi_integer, peer, 7, mpi_comm_world, req, ierr)
  call mpi_recv(buf(2), 1, mpi_integer, peer, 7, mpi_comm_world, mpi_status_ignore, ierr)
` + between + `  call mpi_wait(req, mpi_status_ignore, ierr)
  checksum = checksum + buf(2)
`
	}
	extras := map[string]string{
		"isend":     isend(""),
		"overwrite": isend("  buf(1) = 0\n"),
		"wtime": `  t0 = mpi_wtime()
`,
		"anytag": exchange + `  if (mod(me, 2) == 0) then
    call mpi_send(buf(1), 1, mpi_integer, peer, 7, mpi_comm_world, ierr)
    call mpi_recv(buf(2), 1, mpi_integer, peer, -1, mpi_comm_world, mpi_status_ignore, ierr)
  else
    call mpi_recv(buf(2), 1, mpi_integer, peer, -1, mpi_comm_world, mpi_status_ignore, ierr)
    call mpi_send(buf(1), 1, mpi_integer, peer, 7, mpi_comm_world, ierr)
  endif
  checksum = checksum + buf(2)
`,
	}
	names := []string{"isend", "overwrite", "wtime", "anytag"}
	var corpus []workload.Scenario
	for _, name := range names {
		sc := base
		sc.Name += "/" + name
		src := sc.Source
		for _, edit := range [][2]string{
			{"  integer ix, iy, ierr, checksum\n", "  integer ix, iy, ierr, checksum\n  integer me, peer, req, buf(1:2)\n  real t0\n"},
			{"  call mpi_init(ierr)\n", "  call mpi_init(ierr)\n  call mpi_comm_rank(mpi_comm_world, me, ierr)\n"},
			{"  print *, 'checksum'", extras[name] + "  print *, 'checksum'"},
		} {
			if !strings.Contains(src, edit[0]) {
				t.Fatalf("%s: corpus source lacks %q", sc.Name, edit[0])
			}
			src = strings.Replace(src, edit[0], edit[1], 1)
		}
		sc.Source = src
		corpus = append(corpus, sc)
	}
	rep, err := Run(Config{Scenarios: corpus, Tune: true, TuneCheckEngine: exec.EngineWalk})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Errors != 1 || rep.Summary.Correct != len(corpus)-1 {
		t.Fatalf("sweep: %d errors, %d correct; want only the overwrite refused:\n%s", rep.Summary.Errors, rep.Summary.Correct, rep.Table())
	}
	for i, o := range rep.Scenarios {
		if names[i] == "overwrite" {
			if !strings.Contains(o.Err, "store to buf element 1 while a nonblocking request on it is in flight") {
				t.Errorf("%s: error %q, want the in-flight store named", o.Name, o.Err)
			}
			continue
		}
		if len(o.Tuned) != len(rep.Machines) {
			t.Fatalf("%s: %d tuned rows, want %d", o.Name, len(o.Tuned), len(rep.Machines))
		}
		runs, replays := 0, 0
		for _, tr := range o.Tuned {
			runs, replays = runs+tr.WalkRuns, replays+tr.WalkReplays
			if names[i] != "isend" && (tr.WalkReplays != 0 || tr.WalkRuns != tr.TieredChecks) {
				t.Errorf("%s on %s: %d checks paid by %d walk runs and %d replays; want one walk run each",
					o.Name, tr.Profile, tr.TieredChecks, tr.WalkRuns, tr.WalkReplays)
			}
		}
		if names[i] == "isend" && (o.Tuned[0].WalkRuns == 0 || replays < len(rep.Machines)-1) {
			t.Errorf("%s: %d walk runs, %d replays; want the original walked once and replayed on the other machines", o.Name, runs, replays)
		}
	}
}

// TestWinnersReplayedAcrossMachines: a walk-checked sweep walks each distinct
// winner source of a scenario once, under the first machine in sweep order
// that adopted it, and every later machine that adopted the same source
// replays that walk. Which worker reaches a recording first does not matter:
// the counters — and the whole artifact — are the same with one worker and
// with four (run under -race in CI, for the per-scenario winner state).
func TestWinnersReplayedAcrossMachines(t *testing.T) {
	corpus := smallCorpus(t, 9)
	var reps []*Report
	for _, par := range []int{1, 4} {
		rep, err := Run(Config{Scenarios: corpus, Tune: true, TuneCheckEngine: exec.EngineWalk, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Summary.Errors != 0 || rep.Summary.Correct != len(corpus) {
			t.Fatalf("parallelism %d: sweep failed:\n%s", par, rep.Table())
		}
		requireWalkEconomics(t, corpus, rep)
		rep.Summary.SweepWallNs = 0
		stripReplayCounters(rep)
		reps = append(reps, rep)
	}
	winnerReplays := reps[0].Summary.WalkReplays
	for _, o := range reps[0].Scenarios {
		winnerReplays -= int64(len(o.Tuned) - 1) // the original's
	}
	if winnerReplays == 0 {
		t.Fatal("no winner was replayed: the corpus prefix no longer shares a winner across machines")
	}
	a, _ := json.Marshal(reps[0])
	b, _ := json.Marshal(reps[1])
	if string(a) != string(b) {
		t.Errorf("artifact depends on parallelism:\n%s\nvs\n%s", a, b)
	}
	t.Logf("%d walk runs, %d replays (%d of winners) over %d checks",
		reps[0].Summary.WalkRuns, reps[0].Summary.WalkReplays, winnerReplays, reps[0].Summary.TieredChecks)
}
