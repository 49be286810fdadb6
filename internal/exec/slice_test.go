package exec_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/workload"
)

// requireSliceIsRecording holds the recording of src's slice to its full
// recording under m: entry for entry, and certifying alike. It reports
// whether src has a slice.
func requireSliceIsRecording(t *testing.T, label, src string, np int, m plan.Machine) bool {
	t.Helper()
	_, full, ferr := exec.Runner{}.Record(src, np, m.Costs, m.Profile)
	slice, why, serr := exec.Runner{}.RecordSlice(src, np, m.Costs, m.Profile)
	if why != "" {
		return false
	}
	if (ferr == nil) != (serr == nil) {
		t.Fatalf("%s under %s: recording err %v, slice err %v", label, m.Name, ferr, serr)
	}
	if d := interp.Disagree(full, slice); d != "" {
		t.Fatalf("%s under %s: the slice's recording is not the program's: %s", label, m.Name, d)
	}
	return true
}

// TestSliceEqualsRecordingCorpus: every corpus original and knob-plan variant
// at the scenario's fixed K, under every built-in machine.
func TestSliceEqualsRecordingCorpus(t *testing.T) {
	scenarios := workload.GenerateScenarios(workload.GenOptions{})
	if testing.Short() {
		scenarios = scenarios[:9]
	}
	sliced, programs := 0, 0
	for _, sc := range scenarios {
		prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, pl := range knobPlans(sc.K) {
			src, _, err := core.Apply(prog, pl)
			if err != nil {
				t.Fatal(err)
			}
			if seen[src] {
				continue
			}
			seen[src] = true
			programs++
			for _, m := range plan.Builtin() {
				if sc.Costs != nil {
					m.Costs = *sc.Costs
				}
				if requireSliceIsRecording(t, fmt.Sprintf("%s/%s", sc.Name, pl.Key()), src, sc.NP, m) && m.Name == plan.Builtin()[0].Name {
					sliced++
				}
			}
		}
	}
	t.Logf("%d of %d programs sliced", sliced, programs)
}

// TestSliceEqualsRecordingFixtures: every runnable golden fixture under every
// built-in machine.
func TestSliceEqualsRecordingFixtures(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.f90"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden fixtures found: %v", err)
	}
	sliced := 0
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(b)
		m := npRe.FindStringSubmatch(src)
		if !strings.Contains(src, "program ") || m == nil {
			continue // code fragments (figure4) are not runnable
		}
		np, _ := strconv.Atoi(m[1])
		for _, mach := range plan.Builtin() {
			if !requireSliceIsRecording(t, filepath.Base(path), src, np, mach) {
				t.Fatalf("%s has no slice", path)
			}
		}
		sliced++
	}
	if sliced == 0 {
		t.Fatal("no runnable fixtures exercised")
	}
}

// TestSliceEqualsRecordingRandomKernels: the 200 generated kernels under the
// three built-in machines. A kernel whose slice would read received data is
// measured instead, and counted.
func TestSliceEqualsRecordingRandomKernels(t *testing.T) {
	count := randomKernels
	if testing.Short() {
		count = 20
	}
	sliced := 0
	for i := 0; i < count; i++ {
		for mi, m := range plan.Builtin() {
			if requireSliceIsRecording(t, fmt.Sprintf("kernel %d", i), randomKernel(i), 2, m) && mi == 0 {
				sliced++
			}
		}
	}
	t.Logf("%d of %d kernels sliced", sliced, count)
}

// FuzzSlice: over randkernel_test.go's grammar, drawn from two fuzzed seeds
// (the kernel's shapes, then its calls-and-messages phase), the slice's
// recording is the program's under every built-in machine — entry for entry
// and certifying alike — or both runs fail.
func FuzzSlice(f *testing.F) {
	for i := int64(0); i < 4; i++ {
		f.Add(20060425+i, 20261001+i)
	}
	f.Fuzz(func(t *testing.T, seed, xseed int64) {
		g := &kgen{r: rand.New(rand.NewSource(seed)), x: rand.New(rand.NewSource(xseed))}
		src := g.program()
		for _, m := range plan.Builtin() {
			if !requireSliceIsRecording(t, "fuzz kernel", src, 2, m) {
				t.Fatalf("no slice for a lowered kernel:\n%s", src)
			}
		}
	})
}

// zeroTripNest folds loop i over a nested loop that makes no trips on the
// second pass of r: the cell j that loop stores keeps the value the outer
// body gave it, and that value reaches s(4), which an open receive writes.
const zeroTripNest = `
program zt
  include 'mpif.h'
  integer s(1:8), t(1:8), req, ierr, me, r, m, i, j, k, x
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  call mpi_irecv(s(4), 1, mpi_integer, 1 - me, 0, mpi_comm_world, req, ierr)
  do r = 1, 2
    m = 2 - r
    call mpi_barrier(mpi_comm_world, ierr)
    do i = 1, 5
      j = i
      do k = 1, m
        j = k
      enddo
      x = s(j)
    enddo
  enddo
  call mpi_send(t, 1, mpi_integer, 1 - me, 0, mpi_comm_world, ierr)
  call mpi_wait(req, mpi_status_ignore, ierr)
  call mpi_finalize(ierr)
end program zt
`

// TestSliceFoldOverZeroTripNest: a fold whose nested loop makes no trips
// bounds the cells that loop would have stored by the values they hold, not
// by an earlier fold's, and refuses what the recording refuses.
func TestSliceFoldOverZeroTripNest(t *testing.T) {
	for _, m := range plan.Builtin() {
		if !requireSliceIsRecording(t, "zero-trip nest", zeroTripNest, 2, m) {
			t.Fatal("no slice for the zero-trip nest")
		}
	}
	_, full, err := exec.Runner{}.Record(zeroTripNest, 2, plan.Builtin()[0].Costs, plan.Builtin()[0].Profile)
	if err != nil || full.Certifies() {
		t.Fatalf("recording: err %v, certifies %v; want an in-flight read of s(4)", err, full != nil && full.Certifies())
	}
}
