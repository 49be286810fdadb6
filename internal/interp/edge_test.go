package interp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netsim"
)

func expectError(t *testing.T, src string, np int, want string) {
	t.Helper()
	p, err := Load(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	_, err = p.Run(np, netsim.MPICHGM())
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want containing %q", err, want)
	}
}

func TestErrUnknownSubroutine(t *testing.T) {
	expectError(t, `
program p
  call nosuch(1)
end program p
`, 1, "unknown subroutine")
}

func TestErrDivisionByZero(t *testing.T) {
	expectError(t, `
program p
  integer a, b
  b = 0
  a = 7/b
end program p
`, 1, "division by zero")
}

func TestErrModByZero(t *testing.T) {
	expectError(t, `
program p
  integer a
  a = mod(7, a - a)
end program p
`, 1, "mod by zero")
}

func TestErrImplicitNoneUndeclared(t *testing.T) {
	expectError(t, `
program p
  implicit none
  x = 1
end program p
`, 1, "implicit none")
}

func TestErrWrongArgCount(t *testing.T) {
	expectError(t, `
program p
  integer x
  call two(x)
end program p

subroutine two(a, b)
  integer a, b
  a = b
end subroutine two
`, 1, "wants 2")
}

func TestErrRankMismatch(t *testing.T) {
	expectError(t, `
program p
  integer a(1:4, 1:4)
  integer x
  x = a(1, 2, 3)
end program p
`, 1, "rank")
}

func TestErrAssignToParameter(t *testing.T) {
	expectError(t, `
program p
  integer, parameter :: n = 4
  n = 5
end program p
`, 1, "named constant")
}

func TestLogicalArraysAndOps(t *testing.T) {
	src := `
program p
  implicit none
  logical flags(1:4)
  logical a, b
  integer i, count
  do i = 1, 4
    flags(i) = mod(i, 2) == 0
  enddo
  count = 0
  do i = 1, 4
    if (flags(i)) then
      count = count + 1
    endif
  enddo
  a = .true.
  b = a .and. .not. (count == 99)
  print *, count, b
end program p
`
	res := run(t, src, 1)
	if res.Output[0][0] != "2 T" {
		t.Errorf("output = %v", res.Output[0])
	}
}

func TestCharacterVariables(t *testing.T) {
	src := `
program p
  implicit none
  character(len=8) name
  name = 'prepush'
  if (name == 'prepush') then
    print *, 'hello', name
  endif
end program p
`
	res := run(t, src, 1)
	if res.Output[0][0] != "hello prepush" {
		t.Errorf("output = %v", res.Output[0])
	}
}

func TestNestedSubroutineCalls(t *testing.T) {
	src := `
program p
  implicit none
  integer a(1:6), total
  call fill2(a, 6)
  total = a(1) + a(6)
  print *, total
end program p

subroutine fill2(v, n)
  integer n
  integer v(n)
  integer i
  do i = 1, n
    call setone(v(i), i)
  enddo
end subroutine fill2

subroutine setone(slot, val)
  integer slot(*)
  integer val
  slot(1) = val*val
end subroutine setone
`
	res := run(t, src, 1)
	if res.Output[0][0] != "37" {
		t.Errorf("output = %v", res.Output[0])
	}
}

func TestRealKernelMixedArithmetic(t *testing.T) {
	src := `
program p
  implicit none
  real x(1:8)
  integer i
  real total
  do i = 1, 8
    x(i) = real(i)/2.0 + 0.25
  enddo
  total = 0.0
  do i = 1, 8
    total = total + x(i)
  enddo
  print *, total
end program p
`
	res := run(t, src, 1)
	if res.Output[0][0] != "20" {
		t.Errorf("output = %v", res.Output[0])
	}
}

func TestDoubleDeclaredArrays(t *testing.T) {
	src := `
program p
  implicit none
  double precision d(1:3)
  integer i
  do i = 1, 3
    d(i) = i*1.5
  enddo
  print *, d(3)
end program p
`
	res := run(t, src, 1)
	if res.Output[0][0] != "4.5" {
		t.Errorf("output = %v", res.Output[0])
	}
}

func TestMultiRankVirtualTimeConsistency(t *testing.T) {
	// Ranks doing different amounts of compute must still synchronize at
	// the barrier; finish times reflect the slowest rank.
	src := `
program p
  implicit none
  include 'mpif.h'
  integer me, np, ierr, i, s
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  s = 0
  do i = 1, (me + 1)*1000
    s = s + i
  enddo
  call mpi_barrier(mpi_comm_world, ierr)
  call mpi_finalize(ierr)
end program p
`
	p, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(4, netsim.MPICHGM())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PerRank[0].Compute >= res.Stats.PerRank[3].Compute {
		t.Errorf("rank 0 compute %v should be < rank 3 compute %v",
			res.Stats.PerRank[0].Compute, res.Stats.PerRank[3].Compute)
	}
	// All finish within one barrier of each other.
	for i := 1; i < 4; i++ {
		if res.Stats.PerRank[i].Finish < res.Stats.PerRank[0].Compute {
			t.Errorf("rank %d finished before rank 0's compute", i)
		}
	}
}

func TestWaitallHandlesZeroAndDuplicates(t *testing.T) {
	// Zeroed request slots are null requests; waiting twice is a no-op.
	src := `
program p
  implicit none
  include 'mpif.h'
  integer me, np, ierr
  integer reqs(1:4)
  integer sb(1:2), rb(1:2)
  integer i
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do i = 1, 4
    reqs(i) = 0
  enddo
  sb(1) = me + 10
  sb(2) = me + 20
  if (me == 0) then
    call mpi_isend(sb, 2, mpi_integer, 1, 3, mpi_comm_world, reqs(1), ierr)
  else
    call mpi_irecv(rb, 2, mpi_integer, 0, 3, mpi_comm_world, reqs(2), ierr)
  endif
  call mpi_waitall(4, reqs, mpi_statuses_ignore, ierr)
  call mpi_waitall(4, reqs, mpi_statuses_ignore, ierr)
  if (me == 1) then
    print *, rb(1), rb(2)
  endif
  call mpi_finalize(ierr)
end program p
`
	res := run(t, src, 2)
	if res.Output[1][0] != "10 20" {
		t.Errorf("output = %v", res.Output[1])
	}
}

func TestCostModelScalesElapsed(t *testing.T) {
	src := `
program p
  implicit none
  integer a(1:1000), i
  do i = 1, 1000
    a(i) = i
  enddo
end program p
`
	p1, _ := Load(src)
	r1, err := p1.Run(1, netsim.MPICHGM())
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := Load(src)
	p2.Costs.Store = 100 * netsim.Nanosecond
	r2, err := p2.Run(1, netsim.MPICHGM())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Elapsed() <= r1.Elapsed() {
		t.Errorf("heavier store cost should slow the run: %v vs %v", r2.Elapsed(), r1.Elapsed())
	}
}

func TestSnapshotKinds(t *testing.T) {
	src := `
program p
  implicit none
  integer ia(1:2)
  real ra(1:2)
  ia(1) = 7
  ra(2) = 2.5
end program p
`
	res := run(t, src, 1)
	ia, ok := res.Arrays[0]["ia"].([]int64)
	if !ok || ia[0] != 7 {
		t.Errorf("ia = %#v", res.Arrays[0]["ia"])
	}
	ra, ok := res.Arrays[0]["ra"].([]float64)
	if !ok || ra[1] != 2.5 {
		t.Errorf("ra = %#v", res.Arrays[0]["ra"])
	}
}

// resolveFixture is one program of testdata/resolve: its header comments
// give rank 0's expected output ("! want: line") or the run's exact error
// ("! error: text"). internal/exec's differential tests run the same files
// on both engines.
type resolveFixture struct {
	name, src string
	want      []string
	wantErr   string
}

func resolveFixtures(t *testing.T) []resolveFixture {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "resolve", "*.f90"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no resolution fixtures: %v", err)
	}
	var out []resolveFixture
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f := resolveFixture{name: filepath.Base(path), src: string(b)}
		for _, line := range strings.Split(f.src, "\n") {
			if strings.HasPrefix(line, "! want: ") {
				f.want = append(f.want, strings.TrimPrefix(line, "! want: "))
			}
			if strings.HasPrefix(line, "! error: ") {
				f.wantErr = strings.TrimPrefix(line, "! error: ")
			}
		}
		if (len(f.want) == 0) == (f.wantErr == "") {
			t.Fatalf("%s: want exactly one of '! want:' lines and an '! error:' line", path)
		}
		out = append(out, f)
	}
	return out
}

// TestNameResolutionEdgeCases holds the walker's slot-resolved names to the
// behaviour of the maps they replaced: implicit creation on first read or
// first write, per-unit and per-activation bindings, dummy aliasing, and the
// consts → scalars → MPI constants → arrays → implicit check order with its
// exact messages.
func TestNameResolutionEdgeCases(t *testing.T) {
	for _, f := range resolveFixtures(t) {
		p, err := Load(f.src)
		if err != nil {
			t.Errorf("%s: load: %v", f.name, err)
			continue
		}
		res, err := p.Run(1, netsim.MPICHGM())
		if f.wantErr != "" {
			if err == nil || err.Error() != f.wantErr {
				t.Errorf("%s: error %v, want %q", f.name, err, f.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", f.name, err)
			continue
		}
		if got := strings.Join(res.Output[0], "\n"); got != strings.Join(f.want, "\n") {
			t.Errorf("%s: output\n%s\nwant\n%s", f.name, got, strings.Join(f.want, "\n"))
		}
	}
}
