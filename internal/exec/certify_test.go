package exec_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/workload"
)

// rendezvousForced is the GM machine with every non-empty message sent by
// rendezvous: the protocol under which an in-flight send buffer is read
// latest.
func rendezvousForced() plan.Machine {
	m := plan.MPICHGM2005()
	m.Name += "/rendezvous"
	m.Profile.EagerThreshold = 0
	return m
}

// certifyMachines are the built-in machines plus the rendezvous-forced one.
func certifyMachines() []plan.Machine { return append(plan.Builtin(), rendezvousForced()) }

// recordBoth records src under m on both engines and requires them to agree
// on whether the skeleton certifies, returning the bytecode's recording.
func recordBoth(t *testing.T, label, src string, np int, m plan.Machine) (*interp.Result, *interp.Skeleton) {
	t.Helper()
	var res [2]*interp.Result
	var skel [2]*interp.Skeleton
	for i, eng := range []exec.Engine{exec.EngineWalk, exec.EngineBytecode} {
		var err error
		if res[i], skel[i], err = (exec.Runner{Engine: eng}).Record(src, np, m.Costs, m.Profile); err != nil {
			t.Fatalf("%s: record on %s: %v", label, eng, err)
		}
	}
	if skel[0].Certifies() != skel[1].Certifies() {
		t.Fatalf("%s: certifies on walk %v (%v), on bytecode %v (%v)", label,
			skel[0].Certifies(), skel[0].InFlight(), skel[1].Certifies(), skel[1].InFlight())
	}
	return res[1], skel[1]
}

// requireCertified is what a certifying skeleton promises: the recording
// certifies under either engine, execution under every built-in machine and
// the rendezvous-forced one computes the recording's data — full arrays,
// compared element by element — and the replay under each is that
// execution.
func requireCertified(t *testing.T, label, src string, np int) {
	t.Helper()
	machines := certifyMachines()
	rec, skel := recordBoth(t, label, src, np, machines[0])
	requireCertifiedRecording(t, label, src, np, machines[0], rec, skel)
	requireSliceIsRecording(t, label, src, np, machines[0])
}

// requireCertifiedRecording is requireCertified for the recording rec, skel
// of src under machine rm, on either engine.
func requireCertifiedRecording(t *testing.T, label, src string, np int, rm plan.Machine, rec *interp.Result, skel *interp.Skeleton) {
	t.Helper()
	if !skel.Certifies() {
		t.Fatalf("%s: does not certify: %v", label, skel.InFlight())
	}
	for _, m := range certifyMachines() {
		run, err := exec.Runner{}.Run(src, np, m.Costs, m.Profile)
		if err != nil {
			t.Fatalf("%s under %s: %v", label, m.Name, err)
		}
		for _, pair := range [][2]*interp.Result{{rec, run}, {run, rec}} {
			if same, why := interp.SameOutput(pair[0], pair[1]); !same {
				t.Fatalf("%s: recorded under %s, executed under %s: %s", label, rm.Name, m.Name, why)
			}
		}
		replay, err := skel.Replay(m.Profile, m.Costs)
		if err != nil {
			t.Fatalf("%s: replay under %s: %v", label, m.Name, err)
		}
		requireReplayIsRun(t, fmt.Sprintf("%s: replayed under %s", label, m.Name), run, replay)
	}
}

// requireRefused is what a recording that touched an in-flight buffer
// brings: no certification under either engine and any machine, the reason
// naming the access, Measure refusing with it, and Run still executing.
// Measure refuses it too through a recycler whose storage a clean exchange
// of the same arrays watched before: a reused array carries no stale watch.
func requireRefused(t *testing.T, label, src, why string) {
	t.Helper()
	for _, m := range certifyMachines() {
		rc := new(interp.Recycler)
		if _, _, err := (exec.Runner{Recycler: rc}).Measure(context.Background(), exchange("", postBoth+waitBoth), 2, m.Costs, m.Profile); err != nil {
			t.Fatalf("%s under %s: the clean exchange: %v", label, m.Name, err)
		}
		_, skel := recordBoth(t, label, src, 2, m)
		if skel == nil || skel.Certifies() {
			t.Fatalf("%s: certifies under %s, want it refused", label, m.Name)
		}
		if err := skel.InFlight(); !strings.Contains(err.Error(), why) {
			t.Fatalf("%s under %s: reason %q, want it to name %q", label, m.Name, err, why)
		}
		if _, err := skel.Replay(m.Profile, m.Costs); err == nil {
			t.Fatalf("%s under %s: a skeleton that does not certify replayed", label, m.Name)
		}
		for _, r := range []exec.Runner{{Store: exec.NewMemStore()}, {Engine: exec.EngineWalk}, {Store: exec.NewMemStore(), Recycler: rc}} {
			for round := 0; round < 2; round++ {
				if _, _, err := r.Measure(context.Background(), src, 2, m.Costs, m.Profile); err == nil || !strings.Contains(err.Error(), why) {
					t.Fatalf("%s under %s on %q, measurement %d: err = %v, want it refused", label, m.Name, r.Engine, round, err)
				}
			}
			pricer := exec.Runner{Engine: r.Engine, Store: exec.NewMemStore()}
			for round := 0; round < 2; round++ {
				if _, _, err := pricer.Price(context.Background(), src, 2, m.Costs, m.Profile); err == nil || !strings.Contains(err.Error(), why) {
					t.Fatalf("%s under %s on %q, price %d: err = %v, want it refused", label, m.Name, r.Engine, round, err)
				}
			}
			if _, err := r.Run(src, 2, m.Costs, m.Profile); err != nil {
				t.Fatalf("%s under %s on %q: run: %v", label, m.Name, r.Engine, err)
			}
		}
	}
}

// exchange is a two-rank program: decls and body run between the setup —
// a(1:8) holding i + 100·me, b(1:8) and c(1:8) zero — and a print of s, b
// and c. poke(x, n) adds 1 to x(1) through a dummy view.
func exchange(decls, body string) string {
	return `
program ex
  include 'mpif.h'
  integer ierr, me, peer, i, s, r1, r2, r3, r4
  integer a(1:8), b(1:8), c(1:8)
` + decls + `
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  peer = 1 - me
  s = 0
  do i = 1, 8
    a(i) = i + 100*me
    b(i) = 0
    c(i) = 0
  enddo
` + body + `
  print *, s, b(1), b(8), c(1), c(8)
  call mpi_finalize(ierr)
end program ex

subroutine poke(x, n)
  integer n
  integer x(n)
  x(1) = x(1) + 1
end subroutine poke
`
}

const (
	postBoth = `  call mpi_irecv(b, 8, mpi_integer, peer, 1, mpi_comm_world, r1, ierr)
  call mpi_isend(a, 8, mpi_integer, peer, 1, mpi_comm_world, r2, ierr)
`
	waitBoth = `  call mpi_wait(r1, mpi_status_ignore, ierr)
  call mpi_wait(r2, mpi_status_ignore, ierr)
`
	// inTurn runs a blocking exchange rank 0 first, so no rendezvous
	// deadlocks it.
	inTurn = `  if (me == 0) then
    call mpi_send(%s, 2, mpi_integer, peer, 2, mpi_comm_world, ierr)
    call mpi_recv(c, 2, mpi_integer, peer, 2, mpi_comm_world, mpi_status_ignore, ierr)
  else
    call mpi_recv(c, 2, mpi_integer, peer, 2, mpi_comm_world, mpi_status_ignore, ierr)
    call mpi_send(%s, 2, mpi_integer, peer, 2, mpi_comm_world, ierr)
  endif
`
)

// TestInFlightAccessesDoNotCertify: every way of touching an open request's
// buffer before its wait — directly, in a strip-executed loop, through a
// callee's dummy view, or by another MPI call — leaves a skeleton that does
// not certify, under both engines and every machine.
func TestInFlightAccessesDoNotCertify(t *testing.T) {
	overwrite := `  call mpi_irecv(b, 8, mpi_integer, peer, 1, mpi_comm_world, r1, ierr)
  call mpi_isend(a, 8, mpi_integer, peer, 1, mpi_comm_world, r2, ierr)
  a(3) = 0
` + waitBoth
	cases := []struct{ name, src, why string }{
		{"isend buffer stored", exchange("", overwrite), "store to a element 3"},
		{"isend buffer stored in a loop", exchange("", postBoth+`  do i = 1, 8
    a(i) = -i
  enddo
`+waitBoth), "store to a element 1"},
		{"irecv buffer read", exchange("", postBoth+"  s = b(3)\n"+waitBoth), "load of b element 3"},
		{"irecv buffer read in a loop", exchange("", postBoth+`  do i = 1, 8
    c(i) = b(i)
  enddo
`+waitBoth), "load of b element 1"},
		{"irecv buffer written", exchange("", postBoth+"  b(8) = 7\n"+waitBoth), "store to b element 8"},
		{"overlapping irecvs", exchange("", `  call mpi_irecv(b, 8, mpi_integer, peer, 1, mpi_comm_world, r1, ierr)
  call mpi_irecv(b(5), 4, mpi_integer, peer, 2, mpi_comm_world, r3, ierr)
  call mpi_isend(a, 8, mpi_integer, peer, 1, mpi_comm_world, r2, ierr)
  call mpi_isend(a, 4, mpi_integer, peer, 2, mpi_comm_world, r4, ierr)
`+waitBoth+`  call mpi_wait(r3, mpi_status_ignore, ierr)
  call mpi_wait(r4, mpi_status_ignore, ierr)
`), "mpi_irecv's buffer b overlaps"},
		{"mpi_send from a pending irecv", exchange("", postBoth+fmt.Sprintf(inTurn, "b(2)", "b(2)")+waitBoth), "mpi_send over b"},
		{"mpi_recv into a pending isend", exchange("", postBoth+strings.ReplaceAll(fmt.Sprintf(inTurn, "c", "c"), "mpi_recv(c", "mpi_recv(a(7)")+waitBoth), "mpi_recv over a"},
		{"mpi_alltoall over a pending irecv", exchange("", postBoth+`  call mpi_alltoall(c, 4, mpi_integer, b, 4, mpi_integer, mpi_comm_world, ierr)
`+waitBoth), "mpi_alltoall over b"},
		{"mpi_alltoall from a pending irecv", exchange("", postBoth+`  call mpi_alltoall(b, 4, mpi_integer, c, 4, mpi_integer, mpi_comm_world, ierr)
`+waitBoth), "mpi_alltoall over b"},
		{"isend from a pending irecv", exchange("", postBoth+`  call mpi_isend(b(4), 1, mpi_integer, peer, 2, mpi_comm_world, r3, ierr)
  call mpi_irecv(c, 1, mpi_integer, peer, 2, mpi_comm_world, r4, ierr)
`+waitBoth+`  call mpi_wait(r3, mpi_status_ignore, ierr)
  call mpi_wait(r4, mpi_status_ignore, ierr)
`), "mpi_isend reads b"},
		{"irecv buffer through a callee's dummy", exchange("", postBoth+"  call poke(b(6), 3)\n"+waitBoth), "load of x element 1"},
		{"isend buffer stored while an overlapping isend is open", exchange("", `  call mpi_irecv(b, 8, mpi_integer, peer, 1, mpi_comm_world, r1, ierr)
  call mpi_irecv(c, 4, mpi_integer, peer, 2, mpi_comm_world, r3, ierr)
  call mpi_isend(a, 8, mpi_integer, peer, 1, mpi_comm_world, r2, ierr)
  call mpi_isend(a(3), 4, mpi_integer, peer, 2, mpi_comm_world, r4, ierr)
  call mpi_wait(r4, mpi_status_ignore, ierr)
  a(4) = 0
`+waitBoth+`  call mpi_wait(r3, mpi_status_ignore, ierr)
`), "store to a element 4"},
	}
	for _, tc := range cases {
		requireRefused(t, tc.name, tc.src, tc.why)
	}
}

// TestBufferAccessesOutsideTheWindowCertify: the controls. Reading a send
// buffer in flight, touching what no open request covers, and anything
// after the wait certify — and then compute the same data everywhere.
func TestBufferAccessesOutsideTheWindowCertify(t *testing.T) {
	cases := []struct{ name, src string }{
		{"isend buffer read", exchange("", postBoth+`  do i = 1, 8
    c(i) = a(i)
  enddo
  s = a(8)
`+waitBoth)},
		{"buffers touched after the wait", exchange("", postBoth+waitBoth+`  do i = 1, 8
    a(i) = b(i)
  enddo
  s = b(3)
  call poke(b(6), 3)
`)},
		{"outside the posted window", exchange("", `  call mpi_irecv(b, 4, mpi_integer, peer, 1, mpi_comm_world, r1, ierr)
  call mpi_isend(a, 4, mpi_integer, peer, 1, mpi_comm_world, r2, ierr)
  do i = 5, 8
    a(i) = -i
    b(i) = i
  enddo
  call poke(a(5), 4)
  s = b(5)
`+waitBoth)},
		{"overlapping isends waited in turn", exchange("", `  call mpi_irecv(b, 8, mpi_integer, peer, 1, mpi_comm_world, r1, ierr)
  call mpi_irecv(c, 4, mpi_integer, peer, 2, mpi_comm_world, r3, ierr)
  call mpi_isend(a, 8, mpi_integer, peer, 1, mpi_comm_world, r2, ierr)
  call mpi_isend(a(3), 4, mpi_integer, peer, 2, mpi_comm_world, r4, ierr)
  call mpi_wait(r2, mpi_status_ignore, ierr)
  a(1) = 0
  a(8) = 0
  call mpi_wait(r4, mpi_status_ignore, ierr)
  a(4) = 0
  call mpi_wait(r1, mpi_status_ignore, ierr)
  call mpi_wait(r3, mpi_status_ignore, ierr)
`)},
		{"blocking exchange from a pending isend", exchange("", postBoth+fmt.Sprintf(inTurn, "a(2)", "a(2)")+waitBoth)},
	}
	for _, tc := range cases {
		requireCertified(t, tc.name, tc.src, 2)
	}
}

// knobPlans is the six uniform plans of verify's clean sweep: the fixed
// decision, each wait / send-order / interchange knob, and skip.
func knobPlans(k int64) []*plan.Plan {
	mk := func(d plan.Decision) *plan.Plan { return &plan.Plan{Schema: plan.Schema, Default: d} }
	return []*plan.Plan{
		mk(plan.Decision{K: k}),
		mk(plan.Decision{K: k, Wait: plan.WaitPerTile}),
		mk(plan.Decision{K: k, SendOrder: plan.SendSequential}),
		mk(plan.Decision{K: k, Interchange: plan.InterchangeOff}),
		mk(plan.Decision{K: k, Interchange: plan.InterchangeOn}),
		mk(plan.Decision{Skip: true}),
	}
}

// TestCertifyCensus: every corpus original and every variant of the six knob
// plans at the scenario's fixed K certifies — a transform change that starts
// touching in-flight buffers fails here. The originals and fixed-K variants
// are also held to what certifying promises. (The two engines' recordings of
// those are held equal by TestCorpusBitIdentical.)
func TestCertifyCensus(t *testing.T) {
	scenarios := workload.GenerateScenarios(workload.GenOptions{})
	if testing.Short() {
		scenarios = scenarios[:9] // one of each family
	}
	programs, nonblocking := 0, 0
	for _, sc := range scenarios {
		prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			t.Fatalf("%s: analyze: %v", sc.Name, err)
		}
		m := plan.MPICHGM2005()
		if sc.Costs != nil {
			m.Costs = *sc.Costs
		}
		seen := map[string]bool{}
		for pi, pl := range knobPlans(sc.K) {
			src, _, err := core.Apply(prog, pl)
			if err != nil {
				t.Fatalf("%s: apply %s: %v", sc.Name, pl.Key(), err)
			}
			if seen[src] {
				continue
			}
			seen[src] = true
			label := fmt.Sprintf("%s/%s", sc.Name, pl.Key())
			rec, skel, err := exec.Runner{}.Record(src, sc.NP, m.Costs, m.Profile)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if pi == 0 || src == sc.Source {
				requireCertifiedRecording(t, label, src, sc.NP, m, rec, skel)
			} else if !skel.Certifies() {
				t.Errorf("%s: does not certify: %v", label, skel.InFlight())
			}
			programs++
			if strings.Contains(src, "mpi_isend") || strings.Contains(src, "mpi_irecv") {
				nonblocking++
			}
		}
	}
	t.Logf("%d distinct programs certify, %d of them posting nonblocking requests", programs, nonblocking)
}

// TestCertifiesAgreesOnRandomKernels: over the 200 generated kernels the two
// engines agree on whether a recording certifies, and every eighth one that
// does computes the same data on every machine (TestReplayEqualsRunRandomKernels
// holds all 200 replays to their executions).
func TestCertifiesAgreesOnRandomKernels(t *testing.T) {
	count := randomKernels
	if testing.Short() {
		count = 20
	}
	certified := 0
	for i := 0; i < count; i++ {
		label, src := fmt.Sprintf("kernel %d", i), randomKernel(i)
		rm := plan.MPICHTCP2005()
		rec, skel := recordBoth(t, label, src, 2, rm)
		if !skel.Certifies() {
			continue
		}
		if certified++; i%8 == 0 {
			requireCertifiedRecording(t, label, src, 2, rm, rec, skel)
		}
	}
	t.Logf("%d of %d kernels certify", certified, count)
}

// BenchmarkRecordCorpus prices recording: one recording execution of every
// corpus original and fixed-K variant under the GM machine (the run that
// watches in-flight buffers), against one plain execution of the same
// programs — on the bytecode engine over the whole corpus, on the walk over
// one scenario of each family. Compiles are cached, so the bytecode arms
// time the runs.
func BenchmarkRecordCorpus(b *testing.B) {
	var srcs []string
	var nps []int
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		fixed, _, err := core.Apply(prog, plan.Uniform(plan.Decision{K: sc.K}))
		if err != nil {
			b.Fatal(err)
		}
		srcs, nps = append(srcs, sc.Source, fixed), append(nps, sc.NP, sc.NP)
	}
	m := plan.MPICHGM2005()
	store := exec.NewMemStore()
	for _, eng := range []exec.Engine{exec.EngineBytecode, exec.EngineWalk} {
		r, n := exec.Runner{Engine: eng, Store: store}, len(srcs)
		if eng == exec.EngineWalk {
			n = 18 // the first nine scenarios: one of each family
		}
		for _, record := range []bool{true, false} {
			name := string(eng) + "/run"
			if record {
				name = string(eng) + "/record"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for j, src := range srcs[:n] {
						var err error
						if record {
							_, _, err = r.Record(src, nps[j], m.Costs, m.Profile)
						} else {
							_, err = r.Run(src, nps[j], m.Costs, m.Profile)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
