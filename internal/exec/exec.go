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
// in full and records nothing. What a program computes does not depend on the
// machine, only when things happen does — once the recording proves it: the
// first measurement (Runner.Measure) on an engine at a rank count executes,
// records the run's skeleton on the Program under that engine and watches
// every in-flight buffer while it does (interp/skeleton.go, interp/watch.go).
// If the skeleton certifies, every later measurement on that engine answers
// from it: charge counts priced under the asked-for cost model, MPI
// operations pushed through the same mpi/netsim code with no VM and no
// payloads — an execution's exact Stats and observables for about a tenth of
// its host time, under any machine. The walk engine keeps its own skeletons
// beside the bytecode's, so a walk measurement answers from a walk and
// nothing else: that is what lets the oracle check a sweep once per source.
// Which runs leave no skeleton the input decides (skeleton.go; mpi_wtime at
// lowering time), and those are measured by executing; a run that touched an
// in-flight buffer is an erroneous MPI program, which Measure refuses. There
// is no switch, and a DiskStore persists sources only.
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
	// is); src is its source, which the walker parses (see run).
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
	// skels holds, by skelKey, the *recording of the first measurement on
	// that engine at that rank count. On the Program, so every VariantStore
	// carries it.
	skels sync.Map
}

// skelKey keys a Program's skeleton table: the engine whose execution
// recorded the skeleton (Program.runsOn), and the rank count.
type skelKey struct {
	engine Engine
	np     int
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
	prog := &Program{src: src}
	for _, un := range file.Units {
		cu := compileUnit(un)
		if prog.routed == "" && cu.cm.charWhy != "" {
			prog.routed = fmt.Sprintf("%s: %s: registers hold no character values", cu.cm.charAt, cu.cm.charWhy)
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
// tree-walk. It records nothing: a run neither writes nor reads the
// skeletons Measure keeps.
func (p *Program) RunBytecode(np int, prof netsim.Profile, costs interp.CostModel) (*interp.Result, error) {
	res, _, err := p.run(EngineBytecode, np, prof, costs, false)
	return res, err
}

// runsOn is the engine that executes the program when e is asked for: the
// walker for the walk engine and for a program that is not lowered, the
// register machine otherwise.
func (p *Program) runsOn(e Engine) Engine {
	if e == EngineWalk || p.routed != "" {
		return EngineWalk
	}
	return EngineBytecode
}

// run executes the program on the engine that runs it for e, recording its
// skeleton when asked to. The walker parses the source afresh, as every walk
// does; a lowered program that reads mpi_wtime records nothing (timed).
func (p *Program) run(e Engine, np int, prof netsim.Profile, costs interp.CostModel, record bool) (*interp.Result, *interp.Skeleton, error) {
	if p.runsOn(e) == EngineWalk {
		if !record {
			res, err := runWalk(p.src, np, prof, costs)
			return res, nil, err
		}
		w, err := loadWalk(p.src, costs)
		if err != nil {
			return nil, nil, err
		}
		return w.Record(np, prof)
	}
	p.Bytecode()
	return p.execute(np, prof, costs, record && !p.timed)
}

// recording is one skeleton slot on a Program: done closes once skel is set,
// nil when the run was fenced (interp/skeleton.go).
type recording struct {
	done chan struct{}
	skel *interp.Skeleton
}

// execute runs the lowered program, recording its skeleton when asked to.
func (p *Program) execute(np int, prof netsim.Profile, costs interp.CostModel, record bool) (*interp.Result, *interp.Skeleton, error) {
	tab := p.chargeTab(costs)
	var traces []*interp.RankTrace
	if record {
		traces = make([]*interp.RankTrace, np)
	}
	res, err := interp.RunRanks(np, prof, func(b *interp.MPI) interp.RankState {
		if traces != nil {
			b.Trace = interp.NewRankTrace(np)
			traces[b.Rank.Me()] = b.Trace
		}
		return &rctx{prog: p, rank: b.Rank, mpi: b, tab: tab, trace: b.Trace}
	})
	if traces == nil {
		return res, nil, err
	}
	return res, interp.NewSkeleton(traces, res, err), err
}

// measure answers what a run on engine e would, replaying the skeleton that
// engine recorded if and only if it certifies (interp/skeleton.go) — then the
// answer is that execution's, data included, under any machine — and
// otherwise executing. The first measurement on an engine at a rank count
// records, and nothing else records onto the Program; a measurement that
// finds the recording under way waits for it. A program whose recording
// touched an in-flight buffer is refused with the skeleton's reason: its data
// is the protocol's, so no measurement under one machine speaks for another,
// and Run is the only way to execute it. replayed says which answer res is.
func (p *Program) measure(e Engine, np int, prof netsim.Profile, costs interp.CostModel) (res *interp.Result, replayed bool, err error) {
	key := skelKey{p.runsOn(e), np}
	v, seen := p.skels.Load(key)
	if !seen {
		v, seen = p.skels.LoadOrStore(key, &recording{done: make(chan struct{})})
	}
	rec := v.(*recording)
	if !seen {
		// The recording execution, published when it ends — however it
		// ends, so no measurement waits forever.
		defer close(rec.done)
		res, rec.skel, err = p.run(e, np, prof, costs, true)
		if err == nil && rec.skel != nil && !rec.skel.Certifies() {
			return nil, false, rec.skel.InFlight()
		}
		return res, false, err
	}
	<-rec.done
	if rec.skel.Certifies() {
		if res, err := rec.skel.Replay(prof, costs); err == nil {
			return res, true, nil
		}
	} else if rec.skel != nil {
		return nil, false, rec.skel.InFlight()
	}
	res, _, err = p.run(e, np, prof, costs, false)
	return res, false, err
}

// Run is RunBytecode. It keeps its own name only because benchmark/layers.go
// times it as the exec.closure_run_ms_p50 probe (the closure tier it used to
// run is gone); probe and synonym retire together in a benchmark PR.
func (p *Program) Run(np int, prof netsim.Profile, costs interp.CostModel) (*interp.Result, error) {
	return p.RunBytecode(np, prof, costs)
}

// runWalk parses src afresh and tree-walks it: the walk engine.
func runWalk(src string, np int, prof netsim.Profile, costs interp.CostModel) (*interp.Result, error) {
	p, err := loadWalk(src, costs)
	if err != nil {
		return nil, err
	}
	return p.Run(np, prof)
}

func loadWalk(src string, costs interp.CostModel) (*interp.Program, error) {
	p, err := interp.Load(src)
	if err != nil {
		return nil, err
	}
	p.Costs = costs
	return p, nil
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
