// Package exec is the compiled execution engine: it resolves every name of
// a parsed ftn program to a slot once (compile.go) and lowers every program
// unit — the main program and each subroutine — to a register-machine
// instruction stream (bcompile.go, bytecode.go, strip.go) that starts with
// the unit's frame setup and runs user calls, PRINT and MPI statements as
// instructions of their own. MPI calls execute through interp.MPI, the same
// binding (and the same semantics tables) the tree-walking interpreter in
// internal/interp uses, and ranks run through interp.RunRanks. Executing a
// compiled program is bit-identical to tree-walking the AST: the same output
// lines, final arrays, message counts, and virtual times, including every
// cost-model charge in the same order.
//
// The point of compiling is the measurement loop: the tuner and the
// harness run the same (program, plan) variant many times — per machine
// model, per tuning candidate, per sweep — and the tree-walker re-parses
// and re-walks the AST for each run. A compiled program is built once per
// variant (see the VariantStore implementations in store.go), shared safely
// across concurrent simulations (all mutable state lives in per-run frames
// and registers; a Program is immutable once lowered), and executed for the
// price of dispatching instructions.
//
// Run vs measure. Running (Runner.Run, Program.RunBytecode) always executes
// in full. What a program computes does not depend on the machine, only when
// things happen does, so the first execution at a rank count also records the
// run's skeleton on the Program (interp/skeleton.go), and measuring
// (Runner.Measure, Program.Measure) answers from it: charge counts priced
// under the asked-for cost model, MPI operations pushed through the same
// mpi/netsim code with no VM and no payloads — an execution's exact Stats for
// about a tenth of its host time. Which runs leave no skeleton the input
// decides (skeleton.go; mpi_wtime at lowering time); there is no switch, the
// walker never records or replays, a DiskStore persists sources only.
//
// There are two engines. Engine "bytecode" is this package; Engine "walk"
// runs internal/interp, retained as the differential oracle: this package's
// tests assert the two agree on every golden fixture, corpus scenario and
// generated kernel. The one thing the register machine does not hold is a
// character value, so a program that can create one — it declares a
// character entity, or has a string literal anywhere but directly as a PRINT
// item — is not lowered: CompileSource records where and why, keeps the
// source, and RunBytecode runs the walker on it. That is a selection from
// the input, not an option.
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
	main *unit
	subs []*unit // subroutines in file order (first definition of a name wins)

	// routed says where and why the program is not lowered ("" when it
	// is); src is its source, kept only then, for the walker.
	routed string
	src    string

	// bcOnce guards the one lowering of all units. vecs are the charge
	// vectors of every unit's bCharge, deduplicated program-wide, so a run
	// folds its cost model into one table; nreg sizes a rank's register
	// stack for the main unit plus its widest callee.
	bcOnce sync.Once
	vecs   []chargeVec
	nreg   int
	// timed: a unit reads mpi_wtime (set by the lowering), so what the
	// program computes can depend on the machine: its runs are not recorded.
	timed bool
	// skels holds, by rank count, the *interp.Skeleton the first execution at
	// that rank count recorded — nil while it runs, and for good if no replay
	// can stand for it. On the Program, so every VariantStore carries it.
	skels sync.Map
}

// unit is one compiled program unit.
type unit struct {
	name   string
	params []string
	// paramScal/paramArr map the i-th dummy onto its scalar and array
	// slots; the call site fills whichever side the actual argument
	// provides (both exist — Fortran's loose argument association means a
	// dummy's classification is decided by the caller).
	paramScal []int
	paramArr  []int

	nscal, narr, nconst int

	// cm is the unit's symbol table and AST, which the lowering reads; bp
	// its lowered form, set for every unit by Program.Bytecode.
	cm *comp
	bp *bprog
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
	// dummy holds, by array slot, the array a caller passed for a dummy
	// argument. It stays out of arr until the dummy's declaration views it
	// (or setup ends), so bounds and initializers cannot see it early —
	// the tree-walker's rule. Empty in a unit without dummies.
	dummy []*interp.Array
}

func (u *unit) newFrame() *frame {
	n := u.narr
	if len(u.params) > 0 {
		n *= 2 // room for the dummy side
	}
	arrs := make([]*interp.Array, n)
	return &frame{
		scal:     make([]*interp.Value, u.nscal),
		arr:      arrs[:u.narr:u.narr],
		dummy:    arrs[u.narr:],
		consts:   make([]interp.Value, u.nconst),
		constSet: make([]bool, u.nconst),
	}
}

// rctx is the per-rank execution context: everything mutable during a run.
type rctx struct {
	prog *Program
	rank *mpi.Rank
	tab  []netsim.Time // prog.vecs under the run's cost model
	out  []string
	main *frame

	// regs is the rank's register stack: every activation's registers are a
	// window of it above top, so a CALL allocates none. It only grows; a
	// window handed out earlier keeps the backing it was cut from.
	regs []reg
	top  int
	vals []interp.Value // bIntr's argument scratch
	subs []int64        // subscript scratch of Buffer and of element actuals

	// strip is the lane-vector scratch, taken from stripPool by the first
	// strip-wise loop of the run. stripIters and scalarIters count the
	// main unit's innermost-loop iterations entered each way, calleeIters
	// those of subroutines (either way); recurLanes and idivLanes count the
	// strip-executed mod and / lanes by path (remainder recurrence, or one
	// division per lane). Only tests read them.
	strip                                *stripScratch
	stripIters, scalarIters, calleeIters int64
	recurLanes, idivLanes                int64

	// mpi is the rank's MPI binding; site is the call it is executing (the
	// rctx is its own interp.MPIArgs, see bytecode.go).
	mpi  *interp.MPI
	site mpiSite
	// trace is mpi.Trace: non-nil in the one run that records the skeleton.
	trace *interp.RankTrace
}

// window cuts n zeroed registers off the register stack.
func (x *rctx) window(n int) []reg {
	if x.top+n > len(x.regs) {
		x.regs = make([]reg, max(2*len(x.regs), x.top+n, x.prog.nreg))
	}
	w := x.regs[x.top : x.top+n : x.top+n]
	x.top += n
	clear(w)
	return w
}

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

// CompileSource parses src and resolves its names (uncached; a
// VariantStore is the caching layer above this). Lowering to bytecode is
// left to the first Bytecode or RunBytecode call.
func CompileSource(src string) (*Program, error) {
	file, err := ftn.Parse(src)
	if err != nil {
		return nil, err
	}
	if file.Program() == nil {
		return nil, fmt.Errorf("exec: no program unit")
	}
	prog := &Program{}
	for _, un := range file.Units {
		cu := compileUnit(un)
		if prog.routed == "" && cu.cm.charWhy != "" {
			prog.routed = fmt.Sprintf("%s: %s: registers hold no character values", cu.cm.charAt, cu.cm.charWhy)
			prog.src = src
		}
		switch un.Kind {
		case ftn.ProgramUnit:
			if prog.main == nil {
				prog.main = cu
			}
		case ftn.SubroutineUnit:
			if prog.subroutine(un.Name) == nil {
				prog.subs = append(prog.subs, cu)
			}
		}
	}
	return prog, nil
}

// subroutine returns the first subroutine of that name, or nil.
func (p *Program) subroutine(name string) *unit {
	for _, u := range p.subs {
		if u.name == name {
			return u
		}
	}
	return nil
}

// RunBytecode executes the program in full on np simulated ranks over the
// profile, charging computation against costs. The result is bit-identical
// to interp's tree-walk of the same source under the same machine — for a
// program that is not lowered (see the package comment) because it is that
// tree-walk. The first execution at a rank count also records the run's
// skeleton for Measure; every later one pays one map load for that.
func (p *Program) RunBytecode(np int, prof netsim.Profile, costs interp.CostModel) (*interp.Result, error) {
	if p.routed != "" {
		return runWalk(p.src, np, prof, costs)
	}
	p.Bytecode()
	tab := p.chargeTab(costs)
	var traces []*interp.RankTrace
	if _, seen := p.skels.Load(np); !seen && !p.timed {
		// Whoever stores the placeholder records; a concurrent run just executes.
		if _, raced := p.skels.LoadOrStore(np, (*interp.Skeleton)(nil)); !raced {
			traces = make([]*interp.RankTrace, np)
		}
	}
	res, err := interp.RunRanks(np, prof, func(b *interp.MPI) interp.RankState {
		if traces != nil {
			b.Trace = interp.NewRankTrace(np)
			traces[b.Rank.Me()] = b.Trace
		}
		return &rctx{prog: p, rank: b.Rank, mpi: b, tab: tab, trace: b.Trace}
	})
	if traces != nil {
		p.skels.Store(np, interp.NewSkeleton(traces, res, err))
	}
	return res, err
}

// Measure answers what RunBytecode would — the same Stats and, unless the
// program's data depends on message timing, observables — by replaying the
// recorded skeleton when there is one, else by executing. full is non-nil
// exactly when res is a replay: the execution it stands for. A failed replay
// is never the answer: the execution reports.
func (p *Program) Measure(np int, prof netsim.Profile, costs interp.CostModel) (res *interp.Result, full func() (*interp.Result, error), err error) {
	full = func() (*interp.Result, error) { return p.RunBytecode(np, prof, costs) }
	v, _ := p.skels.Load(np)
	if s, _ := v.(*interp.Skeleton); s != nil {
		if res, err := s.Replay(prof, costs); err == nil {
			return res, full, nil
		}
	}
	res, err = full()
	return res, nil, err
}

// Run is RunBytecode. It keeps its own name only because benchmark/layers.go
// times it as the exec.closure_run_ms_p50 probe (the closure tier it used to
// run is gone); probe and synonym retire together in a benchmark PR.
func (p *Program) Run(np int, prof netsim.Profile, costs interp.CostModel) (*interp.Result, error) {
	return p.RunBytecode(np, prof, costs)
}

// runWalk parses src afresh and tree-walks it: the walk engine.
func runWalk(src string, np int, prof netsim.Profile, costs interp.CostModel) (*interp.Result, error) {
	p, err := interp.Load(src)
	if err != nil {
		return nil, err
	}
	p.Costs = costs
	return p.Run(np, prof)
}

// RunMain implements interp.RankState.
func (x *rctx) RunMain() error {
	u := x.prog.main
	fr := u.newFrame()
	regs := x.window(u.bp.nreg)
	if err := u.enter(x, fr, regs); err != nil {
		return err
	}
	// Arrays are snapshotted only once the frame initialized cleanly,
	// matching the tree-walker (newFrame failure leaves no main frame).
	x.main = fr
	err := u.bp.bexec(x, fr, regs, u.bp.body, len(u.bp.code))
	if x.strip != nil {
		stripPool.Put(x.strip)
		x.strip = nil
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
