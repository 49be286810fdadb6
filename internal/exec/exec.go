// Package exec is the compiled execution engine: it lowers a parsed ftn
// program once into a closure program — statements become func(*rctx,
// *frame) error closures, variable names are resolved to slot indices at
// compile time, and MPI calls are lowered to pre-resolved bindings against
// the same mpi runtime (and the same semantics tables) the tree-walking
// interpreter in internal/interp uses. Executing a compiled program is
// bit-identical to tree-walking the AST: the same output lines, final
// arrays, message counts, and virtual times, including every cost-model
// charge in the same order.
//
// The point of compiling is the measurement loop: the tuner and the
// harness run the same (program, plan) variant many times — per machine
// model, per tuning candidate, per sweep — and the tree-walker re-parses
// and re-walks the AST for each run. A compiled program is built once per
// variant (see the VariantStore implementations in store.go), shared safely
// across concurrent simulations (all mutable state lives in per-run
// frames; a Program is immutable after compile), and replayed for the
// price of calling closures.
//
// The closure program is a substrate, not a selectable engine: Engine
// "bytecode" (bytecode.go) lowers its main unit further and bridges into
// these closures for whatever it does not lower; on their own they run only
// through Program.Run. The tree-walker is retained as the differential
// oracle (Engine "walk" runs internal/interp); this package's tests assert
// walk, closure program and bytecode agree on every golden fixture and
// corpus scenario. All three run ranks through interp.RunRanks and MPI
// calls through interp.MPI.
package exec

import (
	"fmt"
	"sync"

	"repro/internal/ftn"
	"repro/internal/interp"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// Program is a compiled, immutable program. It holds no run state and no
// cost model, so one compiled artifact is shared across machines and
// concurrent simulations.
type Program struct {
	main  *unit
	units map[string]*unit // subroutines by name (first definition wins)

	// bc is the lazily-lowered bytecode form of the main unit (the third
	// execution tier); bcOnce guards the one lowering per Program.
	bcOnce sync.Once
	bc     *bprog
}

// unit is one compiled program unit.
type unit struct {
	name   string
	params []string
	// paramScal/paramArr map the i-th dummy onto its scalar and array
	// slots; the call-site binder fills whichever side the actual argument
	// provides (both exist — Fortran's loose argument association means a
	// dummy's classification is decided by the caller).
	paramScal []int
	paramArr  []int

	nscal, narr, nconst int

	setup []stmtFn // frame initialization: consts, declarations, views
	body  []stmtFn

	// cm retains the unit's compile-time symbol state for the bytecode
	// lowering (slot assignments, AST, pre-resolved MPI bindings).
	cm *comp
}

// frame is one procedure activation: slot-indexed storage. Scalar slots
// hold pointers so dummy arguments alias the caller's storage exactly like
// the tree-walker's binding cells; nil means "not yet created" (the
// tree-walker's empty binding).
type frame struct {
	scal   []*interp.Value
	arr    []*interp.Array
	consts []interp.Value
	// constSet marks constant slots whose initializer has run: a named
	// constant is only visible once pass 1 reaches it (the tree-walker's
	// binding's isConst), so a forward reference during frame setup
	// falls through to implicit typing instead of reading a zero slot.
	constSet []bool
}

func (u *unit) newFrame() *frame {
	return &frame{
		scal:     make([]*interp.Value, u.nscal),
		arr:      make([]*interp.Array, u.narr),
		consts:   make([]interp.Value, u.nconst),
		constSet: make([]bool, u.nconst),
	}
}

// rctx is the per-rank execution context: everything mutable during a run.
type rctx struct {
	prog  *Program
	rank  *mpi.Rank
	costs interp.CostModel
	out   []string
	main  *frame

	// bp and tab select the bytecode tier for the main body (see RunMain).
	bp  *bprog
	tab []netsim.Time
	// strip is the lane-vector scratch, taken from stripPool by the first
	// strip-wise loop of the run. stripIters and scalarIters count the
	// innermost-loop iterations entered each way; only tests read them.
	strip                   *stripScratch
	stripIters, scalarIters int64

	// mpi is the rank's MPI binding; args and argFr are the call site it is
	// executing (the rctx is its own interp.MPIArgs, see mpi.go).
	mpi   *interp.MPI
	args  []mpiArg
	argFr *frame
	subs  []int64 // Buffer's subscript scratch
}

func (x *rctx) charge(t netsim.Time) { x.rank.Compute(t) }

// stmtFn is a compiled statement; exprFn a compiled expression.
type stmtFn func(x *rctx, fr *frame) error
type exprFn func(x *rctx, fr *frame) (interp.Value, error)

// Control-flow sentinels (same contract as the tree-walker's).
var (
	errReturn = fmt.Errorf("return")
	errStop   = fmt.Errorf("stop")
	errExit   = fmt.Errorf("exit")
	errCycle  = fmt.Errorf("cycle")
)

// rte formats a positioned runtime error exactly like the tree-walker.
func rte(pos ftn.Pos, format string, args ...interface{}) error {
	return fmt.Errorf("%s: %v", pos, fmt.Errorf(format, args...))
}

// runStmts executes a compiled statement list.
func runStmts(x *rctx, fr *frame, fns []stmtFn) error {
	for _, fn := range fns {
		if err := fn(x, fr); err != nil {
			return err
		}
	}
	return nil
}

// Compile lowers a parsed file into a closure program.
func Compile(file *ftn.File) (*Program, error) {
	if file.Program() == nil {
		return nil, fmt.Errorf("exec: no program unit")
	}
	prog := &Program{units: map[string]*unit{}}
	for _, un := range file.Units {
		cu := compileUnit(prog, un)
		switch un.Kind {
		case ftn.ProgramUnit:
			if prog.main == nil {
				prog.main = cu
			}
		case ftn.SubroutineUnit:
			if _, ok := prog.units[un.Name]; !ok {
				prog.units[un.Name] = cu
			}
		}
	}
	return prog, nil
}

// CompileSource parses and compiles src (uncached; a VariantStore is the
// caching layer above this).
func CompileSource(src string) (*Program, error) {
	f, err := ftn.Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(f)
}

// Run executes the closure program on np simulated ranks over the profile,
// charging computation against costs. The result is bit-identical to
// interp's tree-walk of the same source under the same machine.
func (p *Program) Run(np int, prof netsim.Profile, costs interp.CostModel) (*interp.Result, error) {
	return p.run(np, prof, costs, nil)
}

// run drives interp's rank harness with one rctx per rank. bp selects the
// tier executing the main body: nil for the closure program, else its
// bytecode lowering.
func (p *Program) run(np int, prof netsim.Profile, costs interp.CostModel, bp *bprog) (*interp.Result, error) {
	var tab []netsim.Time
	if bp != nil {
		tab = bp.chargeTab(costs)
	}
	return interp.RunRanks(np, prof, func(b *interp.MPI) interp.RankState {
		return &rctx{prog: p, rank: b.Rank, mpi: b, costs: costs, bp: bp, tab: tab}
	})
}

// RunMain implements interp.RankState: frame setup (constants,
// declarations, views) always runs the compiled setup steps; only the body
// differs by tier.
func (x *rctx) RunMain() error {
	main := x.prog.main
	fr := main.newFrame()
	for _, st := range main.setup {
		if err := st(x, fr); err != nil {
			return err
		}
	}
	// Arrays are snapshotted only once the frame initialized cleanly,
	// matching the tree-walker (newFrame failure leaves no main frame).
	x.main = fr
	var err error
	if x.bp != nil {
		err = x.bp.run(x, fr, x.tab)
		if x.strip != nil {
			stripPool.Put(x.strip)
			x.strip = nil
		}
	} else {
		err = runStmts(x, fr, main.body)
	}
	if err == errStop || err == errReturn {
		err = nil
	}
	return err
}

// Output implements interp.RankState.
func (x *rctx) Output() []string { return x.out }

// MainArrays implements interp.RankState.
func (x *rctx) MainArrays() []*interp.Array {
	if x.main == nil {
		return nil
	}
	arrs := []*interp.Array{}
	for _, a := range x.main.arr {
		if a != nil {
			arrs = append(arrs, a)
		}
	}
	return arrs
}
