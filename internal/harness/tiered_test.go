package harness

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/tune"
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
	for mi, m := range st.machines {
		name := m.Name
		res, err := sess.Tune(st.prog, m, tune.Params{NP: sc.NP, FixedK: sc.K, Arrays: st.arrays})
		if err != nil {
			t.Fatalf("%s: tune: %v", name, err)
		}
		c := res.Choice
		var tr TunedRun
		if err := st.tieredCheck(mi, c, &tr); err != nil {
			t.Fatalf("%s: unmodified choice: %v", name, err)
		}
		if mi == 0 {
			continue
		}
		if tr.WalkReplays != 1 {
			t.Fatalf("%s: original checked by %d walk runs, %d replays; want a replay", name, tr.WalkRuns, tr.WalkReplays)
		}
		c.OriginalNs++
		err = st.tieredCheck(mi, c, &TunedRun{})
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

// TestFencedOriginalsWalkPerMachine: an original whose walk skeleton no
// replay may stand for elsewhere — it posts a nonblocking send, reads
// mpi_wtime, or receives with any tag — is walked once under every machine,
// and walk_runs says so.
func TestFencedOriginalsWalkPerMachine(t *testing.T) {
	base := smallCorpus(t, 1)[0]
	const exchange = `  peer = ieor(me, 1)
  buf(1) = me
`
	extras := map[string]string{
		"isend": exchange + `  call mpi_isend(buf(1), 1, mpi_integer, peer, 7, mpi_comm_world, req, ierr)
  call mpi_recv(buf(2), 1, mpi_integer, peer, 7, mpi_comm_world, mpi_status_ignore, ierr)
  call mpi_wait(req, mpi_status_ignore, ierr)
  checksum = checksum + buf(2)
`,
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
	var corpus []workload.Scenario
	for _, name := range []string{"isend", "wtime", "anytag"} {
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
	if rep.Summary.Errors != 0 || rep.Summary.Correct != len(corpus) {
		t.Fatalf("sweep failed:\n%s", rep.Table())
	}
	for _, o := range rep.Scenarios {
		if len(o.Tuned) != len(rep.Machines) {
			t.Fatalf("%s: %d tuned rows, want %d", o.Name, len(o.Tuned), len(rep.Machines))
		}
		for _, tr := range o.Tuned {
			if tr.WalkReplays != 0 || tr.WalkRuns != tr.TieredChecks {
				t.Errorf("%s on %s: %d checks paid by %d walk runs and %d replays; want one walk run each",
					o.Name, tr.Profile, tr.TieredChecks, tr.WalkRuns, tr.WalkReplays)
			}
		}
	}
	if s := rep.Summary; s.WalkReplays != 0 || s.WalkRuns != s.TieredChecks {
		t.Errorf("summary: %d checks paid by %d walk runs and %d replays", s.TieredChecks, s.WalkRuns, s.WalkReplays)
	}
}
