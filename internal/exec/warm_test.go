package exec_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/plan"
)

// warmExchange is a 2-rank program with fixed-size buffers that posts n
// isend/irecv pairs, each waited.
func warmExchange(n int) string {
	return fmt.Sprintf(`
program warm
  include 'mpif.h'
  integer ierr, me, i, peer, rq, sq
  real sbuf(4), rbuf(4)
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  peer = 1 - me
  sbuf(1) = me
  do i = 1, %d
    call mpi_irecv(rbuf, 4, mpi_real, peer, i, mpi_comm_world, rq, ierr)
    call mpi_isend(sbuf(1), 4, mpi_real, peer, i, mpi_comm_world, sq, ierr)
    call mpi_wait(rq, mpi_status_ignore, ierr)
    call mpi_wait(sq, mpi_status_ignore, ierr)
  end do
  call mpi_finalize(ierr)
end program warm
`, n)
}

// TestWarmFortranRunAllocatesNothingPerMessage holds a Fortran message to
// what the pools lend, the binding included: on a warm pool, a run of
// warmExchange(2048) allocates what a run of warmExchange(256) does, give or
// take 8 B a message, under RunBytecode and under the walk.
func TestWarmFortranRunAllocatesNothingPerMessage(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops some of what it is given")
	}
	const small, large = 256, 2048
	m, _ := plan.ByName("mpich-gm-2005")
	engines := map[string]func(n int) func() error{
		"bytecode": func(n int) func() error {
			p, err := exec.CompileSource(warmExchange(n))
			if err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := p.RunBytecode(2, m.Profile, m.Costs); return err }
		},
		"walk": func(n int) func() error {
			p, err := interp.Load(warmExchange(n))
			if err != nil {
				t.Fatal(err)
			}
			p.Costs = m.Costs
			return func() error { _, err := p.Run(2, m.Profile); return err }
		},
	}
	for name, load := range engines {
		runs := map[int]func() error{small: load(small), large: load(large)}
		// The fewest bytes of a few runs: a collection between two can
		// empty the pools.
		alloc := func(n int) uint64 {
			best := ^uint64(0)
			for i := 0; i < 3; i++ {
				if err := runs[n](); err != nil {
					t.Fatalf("%s, n = %d: %v", name, n, err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := runs[n](); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				best = min(best, after.TotalAlloc-before.TotalAlloc)
			}
			return best
		}
		if err := runs[large](); err != nil {
			t.Fatal(err)
		}
		a, b := alloc(small), alloc(large)
		t.Logf("%s: n = %d: %d B; n = %d: %d B", name, small, a, large, b)
		if b > a && b-a >= 8*(large-small) {
			t.Errorf("%s: a warm run of %d message pairs allocated %d B more than one of %d: %d B per extra pair, want < 8",
				name, large, b-a, small, (b-a)/(large-small))
		}
	}
}
