package exec_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/plan"
)

// sameOutcome runs src on every tier and requires one outcome: the same
// error text (per-rank position and wording included) or the same clean
// result. It returns the shared error text, "" for a clean run.
func sameOutcome(t *testing.T, label, src string, np int, m plan.Machine) string {
	t.Helper()
	var walk *interp.Result
	var walkErr string
	for i, eng := range allEngines {
		res, err := eng.run(src, np, m)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if i == 0 {
			walk, walkErr = res, got
			continue
		}
		if got != walkErr {
			t.Fatalf("%s/%s: error %q, walk says %q", label, eng, got, walkErr)
		}
		if err == nil {
			requireBitIdentical(t, label+"/"+eng.name, walk, res)
		}
	}
	return walkErr
}

// mpiProgram wraps one MPI call in a two-rank program with an array, a
// scalar and the usual prologue in scope.
func mpiProgram(call string) string {
	return `
program t
  include 'mpif.h'
  integer ierr, h
  real a(100000)
  call mpi_init(ierr)
  h = 0
  call ` + call + `
  call mpi_finalize(ierr)
end program t
`
}

var positioned = regexp.MustCompile(`^rank 0: \d+:\d+: `)

// TestMPISignatureTableErrors walks every routine of the binding's signature
// table and breaks its call one argument at a time — wrong arity, negative
// count, unknown datatype, a buffer that is a scalar, an expression, or out
// of bounds — requiring the walker and the bytecode engine to report the
// identical positioned error. The binding is one piece of code under both
// (the walker hands it the AST, the register machine lazy argument code);
// this is the check that it stays one.
func TestMPISignatureTableErrors(t *testing.T) {
	m := plan.MPICHGM2005()
	for _, r := range interp.MPIRoutines() {
		// A well-formed call: every argument filled in by its role.
		args := make([]string, len(r.Roles))
		for i, role := range r.Roles {
			switch {
			case role&interp.ArgBuffer != 0:
				args[i] = "a"
			case role&interp.ArgDType != 0:
				args[i] = "mpi_real"
			case role&interp.ArgStore != 0:
				args[i] = "h"
			case role&interp.ArgValue != 0:
				args[i] = "1"
			default:
				args[i] = "mpi_comm_world"
			}
		}
		call := func(args []string) string {
			return mpiProgram(r.Name + "(" + strings.Join(args, ", ") + ")")
		}
		with := func(i int, arg string) []string {
			out := append([]string(nil), args...)
			out[i] = arg
			return out
		}
		check := func(name string, args []string, want string) {
			t.Helper()
			label := r.Name + "/" + name
			got := sameOutcome(t, label, call(args), 2, m)
			if want == "" {
				return // any outcome, as long as it is the same one
			}
			if !positioned.MatchString(got) || !strings.Contains(got, want) {
				t.Fatalf("%s: error %q, want a positioned error containing %q", label, got, want)
			}
		}

		// Well-formed, the call may still strand its rank (a lone mpi_recv).
		check("well-formed", args, "")
		arity := fmt.Sprintf("%s needs %d arguments", r.Name, len(r.Roles))
		if len(r.Roles) < 3 {
			arity = "" // mpi_init, mpi_finalize, mpi_barrier, flush take any count
		}
		check("one argument more", append(append([]string(nil), args...), "h"), arity)
		if len(args) > 0 {
			check("one argument fewer", args[:len(args)-1], arity)
		}
		for i, role := range r.Roles {
			switch {
			case role&interp.ArgDType != 0:
				check(fmt.Sprintf("arg%d unknown datatype", i), with(i, "77"), "unknown MPI datatype 77")
				check(fmt.Sprintf("arg%d negative count", i-1), with(i-1, "-3"), "negative MPI count -3")
			case role&interp.ArgBuffer != 0:
				check(fmt.Sprintf("arg%d scalar buffer", i), with(i, "h"), "MPI buffer h is not an array")
				check(fmt.Sprintf("arg%d expression buffer", i), with(i, "1 + 2"), "bad MPI buffer argument")
				check(fmt.Sprintf("arg%d buffer subscript", i), with(i, "a(100001)"), "out of bounds")
			}
		}
	}
}

// TestMPIBadTransfersArePositionedErrors: a transfer the simulator cannot
// carry out is an error of the rank that asked for it — named by source
// position, identical on every tier — never a panic. The payload callbacks
// of a rendezvous transfer run inside engine events, on the goroutine that
// called the simulation: while they panicked instead of recording their
// failures, the first case below (the peer's receive is posted, so the NIC
// does read the window) and the "message longer" cases crashed the caller of
// Run on every engine.
func TestMPIBadTransfersArePositionedErrors(t *testing.T) {
	const peer = `  integer other, req(2)`
	const setPeer = `
  other = 1 - me`
	cases := []struct{ name, decls, body, want string }{
		{"rendezvous send window overruns the array", peer + `
  real a(100000)`, setPeer + `
  call mpi_isend(a(50001), 100000, mpi_real, other, 0, mpi_comm_world, req(1), ierr)
  call mpi_wait(req(1), mpi_status_ignore, ierr)`,
			"11:18: array a: MPI window [50000,150000) out of range"},
		{"receive window overruns the array", peer + `
  real a(8)`, setPeer + `
  call mpi_irecv(a(5), 8, mpi_real, other, 0, mpi_comm_world, req(1), ierr)`,
			"11:18: array a: MPI window [4,12) out of range"},
		{"peer outside the communicator", peer + `
  real a(8)`, setPeer + `
  call mpi_send(a, 8, mpi_real, me + 2, 0, mpi_comm_world, ierr)`,
			"11:36: MPI peer rank 2 outside 0..1"},
		{"message longer than the posted receive, waited", peer + `
  real a(8), b(8)`, setPeer + `
  call mpi_irecv(b(5), 4, mpi_real, other, 0, mpi_comm_world, req(1), ierr)
  call mpi_isend(a, 8, mpi_real, other, 0, mpi_comm_world, req(2), ierr)
  call mpi_waitall(2, req, mpi_statuses_ignore, ierr)`,
			"13:3: array b: recv window out of range"},
		{"message longer than the posted receive, blocking", peer + `
  real a(8), b(8)`, setPeer + `
  call mpi_isend(a, 8, mpi_real, other, 0, mpi_comm_world, req(2), ierr)
  call mpi_recv(b(5), 4, mpi_real, other, 0, mpi_comm_world, mpi_status_ignore, ierr)`,
			"12:3: array b: recv window out of range"},
		{"message longer than the posted receive, never waited", peer + `
  real a(8), b(8)`, setPeer + `
  call mpi_irecv(b(5), 4, mpi_real, other, 0, mpi_comm_world, req(1), ierr)
  call mpi_isend(a, 8, mpi_real, other, 0, mpi_comm_world, req(2), ierr)`,
			"MPI transfer never waited on: array b: recv window out of range"},
		{"negative send tag", peer + `
  real a(8)`, setPeer + `
  call mpi_isend(a, 8, mpi_real, other, -1, mpi_comm_world, req(1), ierr)`,
			"11:41: negative MPI send tag -1"},
		{"receive tag below any tag", peer + `
  real a(8)`, setPeer + `
  call mpi_recv(a, 8, mpi_real, other, -2, mpi_comm_world, mpi_status_ignore, ierr)`,
			"11:40: MPI receive tag -2 below -1 (any tag)"},
		{"request array shorter than the waitall count", peer, setPeer + `
  call mpi_waitall(3, req, mpi_statuses_ignore, ierr)`,
			"10:23: array req: MPI window [0,3) out of range"},
	}
	for _, tc := range cases {
		for _, m := range plan.PaperPair() {
			label := tc.name + "/" + m.Name
			got := sameOutcome(t, label, wrap(tc.decls, tc.body), 2, m)
			if !strings.HasPrefix(got, "rank 0: ") || !strings.Contains(got, tc.want) {
				t.Errorf("%s: error %q, want rank 0 to report %q", label, got, tc.want)
			}
		}
	}
}

// TestCollectiveTrafficIsNotUserTraffic: collectives match in a context of
// their own, as in a real MPI library, so a user receive never takes their
// traffic. An any-tag receive posted before mpi_barrier used to take the
// barrier's release (the run deadlocked on a nil payload), and a receive
// with the tag mpi_alltoall then used internally (2²⁴ + 1) swapped payloads
// with the alltoall's own receive.
func TestCollectiveTrafficIsNotUserTraffic(t *testing.T) {
	cases := []struct{ name, decls, body, want string }{
		{"any-tag receive across a barrier", `  integer req, buf(1)`, `
  buf(1) = 0
  if (me == 1) then
    call mpi_irecv(buf, 1, mpi_integer, 0, -1, mpi_comm_world, req, ierr)
  endif
  call mpi_barrier(mpi_comm_world, ierr)
  if (me == 0) then
    buf(1) = 42
    call mpi_send(buf, 1, mpi_integer, 1, 5, mpi_comm_world, ierr)
  else
    call mpi_wait(req, mpi_status_ignore, ierr)
    print *, 'rank 1 got', buf(1)
  endif`, "rank 1 got 42"},
		{"alltoall's internal tag across an alltoall", `  integer req, i, x(1), as(2), ar(3)`, `
  do i = 1, 2
    as(i) = 10 * i + me
  enddo
  ar(3) = 0
  if (me == 1) then
    call mpi_irecv(ar(3), 1, mpi_integer, 0, 16777217, mpi_comm_world, req, ierr)
  endif
  call mpi_alltoall(as, 1, mpi_integer, ar, 1, mpi_integer, mpi_comm_world, ierr)
  if (me == 0) then
    x(1) = 10
    call mpi_send(x, 1, mpi_integer, 1, 16777217, mpi_comm_world, ierr)
  else
    call mpi_wait(req, mpi_status_ignore, ierr)
    print *, 'ar =', ar(1), ar(2), ar(3)
  endif`, "ar = 20 21 10"},
	}
	for _, tc := range cases {
		src := wrap(tc.decls, tc.body)
		for _, m := range plan.Builtin() {
			label := tc.name + "/" + m.Name
			runAll(t, label, src, 2, m)
			res, err := bytecodeTier.run(src, 2, m)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got := res.Output[1]; len(got) != 1 || got[0] != tc.want {
				t.Errorf("%s: rank 1 printed %q, want %q", label, got, tc.want)
			}
		}
	}
}

// TestLateTransferAllTiers: a transfer that completes after its rank ended
// is left out of that rank's final arrays by every tier (the rank harness
// copies the arrays of a rank with an outstanding request instead of
// aliasing them).
func TestLateTransferAllTiers(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "interp", "testdata", "late_receive.f90"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range plan.PaperPair() {
		if got := sameOutcome(t, "late/"+m.Name, string(src), 2, m); got != "" {
			t.Fatalf("%s: %s", m.Name, got)
		}
		for _, eng := range allEngines {
			res, err := eng.run(string(src), 2, m)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range res.Arrays[0]["a"].([]int64) {
				if v != 0 {
					t.Errorf("%s/%s: rank 0 a(%d) = %d, want the array as the rank left it", m.Name, eng, i+1, v)
				}
			}
		}
	}
}
