package exec

import (
	"context"
	"fmt"
	"runtime/pprof"

	"repro/internal/interp"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// Engine selects how program variants are executed: the bytecode engine
// (a register machine every unit of the compiled variant is lowered to,
// drawing from a variant store) or the tree-walking interpreter, which is
// retained as the differential oracle.
type Engine string

const (
	// EngineBytecode lowers every unit of each compiled variant into a
	// register-based flat instruction stream (constant folding, batched
	// cost charges, bounds-check elimination) and dispatches through a
	// flat switch. The fast engine, and the default. A program holding
	// character values is not lowered and runs on the walker.
	EngineBytecode Engine = "bytecode"
	// EngineWalk parses and tree-walks the AST for every execution — the
	// historical path, kept as the bit-identical oracle. Its measurements
	// record and replay walk skeletons of their own.
	EngineWalk Engine = "walk"
)

// Default is the engine used when none is named.
const Default = EngineBytecode

// ParseEngine validates an engine name ("" selects the default). It is the
// one engine-name parser every command-line surface shares.
func ParseEngine(name string) (Engine, error) {
	switch Engine(name) {
	case "":
		return Default, nil
	case EngineBytecode, EngineWalk:
		return Engine(name), nil
	}
	return "", fmt.Errorf("exec: unknown engine %q (want %q or %q)",
		name, EngineBytecode, EngineWalk)
}

// Runner binds an engine to the variant store its compiled variants are
// drawn from — the injectable execution handle a session threads through
// the pipeline.
type Runner struct {
	Engine Engine
	// Store caches compiled variants, and with them the skeletons their
	// measurements record, across runs; with a nil Store each call compiles
	// its source afresh. A walk run parses the source itself and skips it.
	Store VariantStore
	// Recycler, when non-nil, lends the arrays of Measure's bytecode
	// executions, which hand them back when they end (interp/recycle.go):
	// whoever makes a sequence of measurements — a search — owns one, and
	// its memory goes with it. It serves one measurement at a time. Run and
	// the walk engine allocate arrays afresh.
	Recycler *interp.Recycler
}

// Run executes src in full on np simulated ranks under the profile, charging
// computation against costs. Both engines produce bit-identical results.
func (r Runner) Run(src string, np int, costs interp.CostModel, prof netsim.Profile) (*interp.Result, error) {
	if r.Engine == EngineWalk {
		return runWalk(src, np, prof, costs)
	}
	p, err := r.get(src)
	if err != nil {
		return nil, err
	}
	return p.RunBytecode(np, prof, costs)
}

// Measure is Run's measuring twin: Run's answer, replayed from the skeleton
// the variant's Program — drawn from the Store like any run's — holds for
// this engine when that skeleton certifies, else executed; the first
// measurement on an engine at a rank count is the execution that records it,
// and a variant whose recording touched an in-flight buffer is refused (see
// Program.measure). Executed or replayed, on either engine, the answer holds
// the final arrays' digests, never their data. A Runner without a Store gets
// a new Program on every call, so each of its measurements is a recording
// execution, refused by the same rule. ctx carries the caller's profiler
// labels; Measure adds layer (compile, then execute or replay) and engine.
func (r Runner) Measure(ctx context.Context, src string, np int, costs interp.CostModel, prof netsim.Profile) (res *interp.Result, replayed bool, err error) {
	var p *Program
	pprof.Do(ctx, pprof.Labels("layer", "compile"), func(context.Context) {
		if p, err = r.get(src); err == nil && p.runsOn(r.Engine) == EngineBytecode {
			p.Bytecode()
		}
	})
	if err != nil {
		return nil, false, err
	}
	return p.measure(ctx, r.Engine, np, prof, costs, r.Recycler)
}

// Price is Measure for a caller that needs a run's timing only — a search
// ranking candidates by makespan: the Stats Measure would answer, and how
// they were answered. On the bytecode engine a variant is priced by its
// slice (slice.go): the first price at a rank count executes the slice —
// every charge and MPI operation of the program, none of the data nothing
// times — and records its skeleton in the table Measure uses, which later
// prices replay under any machine; a variant whose full recording already
// certified replays that. A variant Measure would refuse, Price refuses. A
// variant without a slice — on the walk engine, not lowered, or reading
// mpi_wtime — is measured. ctx carries the caller's profiler labels; Price
// adds layer (compile, then slice, replay or execute) and engine.
func (r Runner) Price(ctx context.Context, src string, np int, costs interp.CostModel, prof netsim.Profile) (*mpi.RunStats, Answer, error) {
	var p *Program
	var err error
	pprof.Do(ctx, pprof.Labels("layer", "compile"), func(context.Context) {
		if p, err = r.get(src); err == nil && p.runsOn(r.Engine) == EngineBytecode {
			p.Bytecode()
			p.sliceForm()
		}
	})
	if err != nil {
		return nil, Executed, err
	}
	return p.price(ctx, r.Engine, np, prof, costs, r.Recycler)
}

// get draws the compiled variant from the store, or compiles it afresh.
func (r Runner) get(src string) (*Program, error) {
	if r.Store != nil {
		return r.Store.Get(src)
	}
	return CompileSource(src)
}
