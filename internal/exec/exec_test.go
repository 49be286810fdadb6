package exec_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/workload"
)

// tier is one way of executing a source text: one of the two engines.
type tier struct {
	name string
	run  func(src string, np int, m plan.Machine) (*interp.Result, error)
}

func (t tier) String() string { return t.name }

func engineTier(e exec.Engine) tier {
	return tier{string(e), func(src string, np int, m plan.Machine) (*interp.Result, error) {
		return exec.Runner{Engine: e}.Run(src, np, m.Costs, m.Profile)
	}}
}

var (
	walkTier     = engineTier(exec.EngineWalk)
	bytecodeTier = engineTier(exec.EngineBytecode)

	// fastEngines are the tiers proven against the walk oracle.
	fastEngines = []tier{bytecodeTier}
	allEngines  = []tier{walkTier, bytecodeTier}
)

// requireBitIdentical asserts two results agree on everything the
// simulation observes: printed output, every final array (both ways),
// virtual completion time, per-rank compute/blocked split, and the message
// and byte counters.
func requireBitIdentical(t *testing.T, label string, walk, fast *interp.Result) {
	t.Helper()
	if same, why := interp.SameOutput(walk, fast); !same {
		t.Fatalf("%s: oracle vs fast output/arrays: %s", label, why)
	}
	if same, why := interp.SameOutput(fast, walk); !same {
		t.Fatalf("%s: fast vs oracle output/arrays: %s", label, why)
	}
	for r := range walk.Arrays {
		if len(walk.Arrays[r]) != len(fast.Arrays[r]) {
			t.Fatalf("%s: rank %d holds %d arrays under walk, %d under the fast tier",
				label, r, len(walk.Arrays[r]), len(fast.Arrays[r]))
		}
	}
	if walk.Elapsed() != fast.Elapsed() {
		t.Fatalf("%s: elapsed %v (walk) vs %v (fast)", label, walk.Elapsed(), fast.Elapsed())
	}
	if walk.Stats.Messages != fast.Stats.Messages || walk.Stats.Bytes != fast.Stats.Bytes {
		t.Fatalf("%s: traffic %d msgs/%d B (walk) vs %d msgs/%d B (fast)", label,
			walk.Stats.Messages, walk.Stats.Bytes, fast.Stats.Messages, fast.Stats.Bytes)
	}
	for r := range walk.Stats.PerRank {
		w, c := walk.Stats.PerRank[r], fast.Stats.PerRank[r]
		if w != c {
			t.Fatalf("%s: rank %d stats %+v (walk) vs %+v (fast)", label, r, w, c)
		}
	}
}

// runAll executes src under the walk oracle and every fast tier on one
// machine, asserting each fast tier is bit-identical to the oracle.
func runAll(t *testing.T, label, src string, np int, m plan.Machine) {
	t.Helper()
	walk, err := walkTier.run(src, np, m)
	if err != nil {
		t.Fatalf("%s: walk: %v", label, err)
	}
	for _, eng := range fastEngines {
		fast, err := eng.run(src, np, m)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, eng, err)
		}
		requireBitIdentical(t, fmt.Sprintf("%s/%s", label, eng), walk, fast)
	}
}

var npRe = regexp.MustCompile(`np\s*=\s*(\d+)`)

// TestGoldenFixturesBitIdentical runs every runnable golden fixture under
// both engines on every built-in machine and requires identical results.
func TestGoldenFixturesBitIdentical(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.f90"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden fixtures found: %v", err)
	}
	ran := 0
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(b)
		if !strings.Contains(src, "program ") {
			continue // code fragments (figure4) are not runnable
		}
		m := npRe.FindStringSubmatch(src)
		if m == nil {
			continue
		}
		np, _ := strconv.Atoi(m[1])
		for _, machine := range plan.Builtin() {
			label := fmt.Sprintf("%s/%s", filepath.Base(path), machine.Name)
			runAll(t, label, src, np, machine)
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no runnable fixtures exercised")
	}
}

// TestCorpusBitIdentical runs the full generated corpus — original and
// fixed-plan transformed variants — under both engines on the paper pair
// and requires bit-identical results everywhere. This is the differential
// oracle of the compiled engine: any semantic or cost-model divergence
// from the tree-walker fails here.
func TestCorpusBitIdentical(t *testing.T) {
	scenarios := workload.GenerateScenarios(workload.GenOptions{})
	if len(scenarios) < 40 {
		t.Fatalf("corpus has %d scenarios, want >= 40", len(scenarios))
	}
	if testing.Short() {
		// The round-robin interleave keeps any prefix family-diverse.
		scenarios = scenarios[:12]
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			transformed, rep, err := core.Apply(prog, plan.Uniform(plan.Decision{K: sc.K}))
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			if rep.TransformedCount() == 0 {
				t.Fatalf("transform did not fire: %s", rep.FirstRejection())
			}
			for _, m := range plan.PaperPair() {
				if sc.Costs != nil {
					m.Costs = *sc.Costs
				}
				for vi, src := range []string{sc.Source, transformed} {
					label := fmt.Sprintf("%s/%s/variant%d", sc.Name, m.Name, vi)
					runAll(t, label, src, sc.NP, m)
				}
			}
		})
	}
}

// TestSubroutineAndImplicitSemantics exercises the engine's trickiest
// lowering paths in one kernel: user subroutines with scalar aliasing and
// sequence-associated array views, implicit typing, named constants,
// intrinsics, EXIT/CYCLE, and a loop whose variable survives the loop.
func TestSubroutineAndImplicitSemantics(t *testing.T) {
	src := `
program torture
  include 'mpif.h'
  integer, parameter :: n = 6
  integer, parameter :: m = n * 2
  integer a(1:n, 1:2)
  integer ierr, me, i, total, cnt
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do i = 1, n
    a(i, 1) = i * 3
    a(i, 2) = i + me
  enddo
  total = 0
  cnt = n
  call accum(a(1, 2), cnt, total)
  call bump(total)
  do i = 1, m
    if (i > 7) then
      exit
    endif
    if (mod(i, 2) == 0) then
      cycle
    endif
    total = total + i
  enddo
  xkeep = 2.5
  print *, 'total', total, i, xkeep, max(total, 40), sqrt(4.0)
  call mpi_finalize(ierr)
end program torture

subroutine accum(v, k, acc)
  integer k, acc
  integer v(1:k)
  integer j
  do j = 1, k
    acc = acc + v(j)
  enddo
end subroutine accum

subroutine bump(x)
  integer x
  x = x + 100
end subroutine bump
`
	for _, m := range plan.Builtin() {
		runAll(t, "torture/"+m.Name, src, 3, m)
	}
}

// TestDuplicateArrayDeclaration: a unit declaring the same array name
// twice must behave like the tree-walker (the second allocation replaces
// the first) — a dummy's caller backing must not be confused with an
// earlier declaration's allocation.
func TestDuplicateArrayDeclaration(t *testing.T) {
	src := `
program dupdecl
  include 'mpif.h'
  integer a(1:2)
  integer a(1:10)
  integer ierr
  call mpi_init(ierr)
  a(9) = 7
  print *, 'a9', a(9)
  call mpi_finalize(ierr)
end program dupdecl
`
	m := plan.MPICHGM2005()
	runAll(t, "dupdecl", src, 2, m)
}

// TestForwardConstantReference: a parameter initializer referencing a
// later parameter must fall back to the implicit-typing zero exactly like
// the tree-walker (the constant is only visible once pass 1 sets it).
func TestForwardConstantReference(t *testing.T) {
	src := `
program fwdconst
  include 'mpif.h'
  integer, parameter :: k = 3 + b
  integer, parameter :: b = 5
  integer ierr
  call mpi_init(ierr)
  print *, 'k', k, 'b', b
  call mpi_finalize(ierr)
end program fwdconst
`
	m := plan.MPICHGM2005()
	runAll(t, "fwdconst", src, 2, m)
}

// TestNameResolutionEdgeCasesAllTiers runs internal/interp's name-resolution
// fixtures (whose headers hold the walker to its expected output) on both
// engines: the same output, arrays, makespan and per-rank stats, or the
// same exact error text.
func TestNameResolutionEdgeCasesAllTiers(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "interp", "testdata", "resolve", "*.f90"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no resolution fixtures: %v", err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(b)
		for _, m := range plan.PaperPair() {
			got := sameOutcome(t, filepath.Base(path)+"/"+m.Name, src, 1, m)
			if wantErr := strings.Contains("\n"+src, "\n! error: "); wantErr != (got != "") {
				t.Errorf("%s: outcome %q, fixture header expects an error: %v", path, got, wantErr)
			}
		}
	}
}

// TestLoweringIsTotal: the opcode table has no instruction that leaves the
// register machine, so "lowered" means every unit, statement and expression
// — and none of the programs the differential tests run is routed to the
// walker instead: the golden fixtures, the name-resolution fixtures, the
// corpus with its default-K and K/4 variants and the random kernels (the
// strip kernels check themselves). Only a character value routes a program,
// see TestCharacterValuesBridge.
func TestLoweringIsTotal(t *testing.T) {
	lowered := func(label, src string) {
		t.Helper()
		p, err := exec.CompileSource(src)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if why := p.Routed(); why != "" {
			t.Errorf("%s is not lowered: %s", label, why)
		}
		if p.Bytecode() == nil {
			t.Errorf("%s has no bytecode", label)
		}
	}
	for _, glob := range []string{
		filepath.Join("..", "..", "testdata", "*.f90"),
		filepath.Join("..", "interp", "testdata", "resolve", "*.f90"),
	} {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no fixtures under %s: %v", glob, err)
		}
		for _, path := range paths {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(b), "program ") { // not a code fragment
				lowered(path, string(b))
			}
		}
	}
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			t.Fatalf("%s: analyze: %v", sc.Name, err)
		}
		lowered(sc.Name, sc.Source)
		for _, k := range []int64{sc.K, max(sc.K/4, 1)} {
			src, _, err := core.Apply(prog, plan.Uniform(plan.Decision{K: k}))
			if err != nil {
				t.Fatalf("%s: apply K=%d: %v", sc.Name, k, err)
			}
			lowered(fmt.Sprintf("%s/K%d", sc.Name, k), src)
		}
	}
	for i := 0; i < randomKernels; i++ {
		lowered(fmt.Sprintf("kernel %d", i), randomKernel(i))
	}
}
