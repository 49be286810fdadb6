package exec_test

import (
	"fmt"
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
// whether src has a slice, and returns the slice's recording.
func requireSliceIsRecording(t *testing.T, label, src string, np int, m plan.Machine) (*interp.Skeleton, bool) {
	t.Helper()
	_, full, ferr := exec.Runner{}.Record(src, np, m.Costs, m.Profile)
	slice, why, serr := exec.Runner{}.RecordSlice(src, np, m.Costs, m.Profile)
	if why != "" {
		return nil, false
	}
	if (ferr == nil) != (serr == nil) {
		t.Fatalf("%s under %s: recording err %v, slice err %v", label, m.Name, ferr, serr)
	}
	if d := interp.Disagree(full, slice); d != "" {
		t.Fatalf("%s under %s: the slice's recording is not the program's: %s", label, m.Name, d)
	}
	return slice, true
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
				if _, ok := requireSliceIsRecording(t, fmt.Sprintf("%s/%s", sc.Name, pl.Key()), src, sc.NP, m); ok && m.Name == plan.Builtin()[0].Name {
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
			if _, ok := requireSliceIsRecording(t, filepath.Base(path), src, np, mach); !ok {
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
// measured instead, and counted. The data-free kernels must reach what the
// slice and the recording's fold handle: some slice allocates a shape, some
// transfers from or into one (moving no payload), some folds a loop nest,
// and some recording stores a strided run.
func TestSliceEqualsRecordingRandomKernels(t *testing.T) {
	count := randomKernels
	if testing.Short() {
		count = 20
	}
	buffers := map[string]bool{"as": true, "ar": true, "sb": true, "rb": true, "ds": true, "dr": true}
	sliced, shaped, dataless, nests, runs := 0, 0, 0, 0, 0
	for i := 0; i < count; i++ {
		src := randomKernel(i)
		for mi, m := range plan.Builtin() {
			slice, ok := requireSliceIsRecording(t, fmt.Sprintf("kernel %d", i), src, 2, m)
			if !ok || mi > 0 {
				continue
			}
			sliced++
			shapes, err := exec.Runner{}.SliceShapes(src)
			if err != nil {
				t.Fatal(err)
			}
			if len(shapes) > 0 {
				shaped++
			}
			for _, name := range shapes {
				if buffers[name] {
					dataless++
					break
				}
			}
			if n, err := (exec.Runner{}).SliceFoldedNests(src); err != nil {
				t.Fatal(err)
			} else if n > 0 {
				nests++
			}
			if exec.SkeletonRuns(slice) > 0 {
				runs++
			}
		}
	}
	t.Logf("%d of %d kernels sliced: %d allocate a shape, %d transfer data-free, %d fold a nest, %d record a strided run",
		sliced, count, shaped, dataless, nests, runs)
	if shaped == 0 || dataless == 0 || nests == 0 || runs == 0 {
		t.Fatalf("the kernels miss a case the slice or the fold handles")
	}
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
		src := newKgen(seed, xseed).program()
		for _, m := range plan.Builtin() {
			if _, ok := requireSliceIsRecording(t, "fuzz kernel", src, 2, m); !ok {
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
		if _, ok := requireSliceIsRecording(t, "zero-trip nest", zeroTripNest, 2, m); !ok {
			t.Fatal("no slice for the zero-trip nest")
		}
	}
	_, full, err := exec.Runner{}.Record(zeroTripNest, 2, plan.Builtin()[0].Costs, plan.Builtin()[0].Profile)
	if err != nil || full.Certifies() {
		t.Fatalf("recording: err %v, certifies %v; want an in-flight read of s(4)", err, full != nil && full.Certifies())
	}
}
