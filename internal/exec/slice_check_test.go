package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/plan"
)

// fillAndExchange fills a(1:n) and exchanges it: programs of one MPI shape
// whose charges differ with n.
func fillAndExchange(n int) string {
	return fmt.Sprintf(`
program fx
  include 'mpif.h'
  integer a(1:64), b(1:64), ierr, me, i
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do i = 1, %d
    a(i) = i * me + mod(i, 7)
  enddo
  call mpi_alltoall(a, 32, mpi_integer, b, 32, mpi_integer, mpi_comm_world, ierr)
  print *, b(1), b(64)
  call mpi_finalize(ierr)
end program fx
`, n)
}

// TestSliceDisagreementIsAnError: a full recording of a program priced by a
// slice that recorded something else fails the measurement — the self-check
// never falls back — while a program's own slice agrees with it.
func TestSliceDisagreementIsAnError(t *testing.T) {
	m := plan.MPICHGM2005()
	ctx := context.Background()
	own, err := CompileSource(fillAndExchange(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, how, err := own.price(ctx, EngineBytecode, 2, m.Profile, m.Costs, nil); err != nil || how != Sliced {
		t.Fatalf("price: %v, %v; want a slice", how, err)
	}
	if _, _, err := own.measure(ctx, EngineBytecode, 2, m.Profile, m.Costs, nil); err != nil {
		t.Fatalf("measure after its own slice: %v", err)
	}

	other, err := CompileSource(fillAndExchange(48))
	if err != nil {
		t.Fatal(err)
	}
	other.Bytecode()
	other.sliceForm()
	_, skel, err := other.runSlice(2, m.Profile, m.Costs, true)
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileSource(fillAndExchange(64))
	if err != nil {
		t.Fatal(err)
	}
	p.Bytecode()
	rec := &recording{done: make(chan struct{}), skel: skel}
	close(rec.done)
	p.skels.Store(skelKey{engine: EngineBytecode, np: 2, slice: true}, rec)
	if _, _, err := p.measure(ctx, EngineBytecode, 2, m.Profile, m.Costs, nil); err == nil || !strings.Contains(err.Error(), "the slice's recording is not the program's") {
		t.Fatalf("measure over a disagreeing slice: err = %v, want the disagreement", err)
	}
}
