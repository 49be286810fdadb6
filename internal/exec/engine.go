package exec

import (
	"fmt"

	"repro/internal/interp"
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
	// EngineWalk parses and tree-walks the AST for every run — the
	// historical path, kept as the bit-identical oracle.
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
	// Store caches compiled variants across runs; with a nil Store each
	// run compiles its source afresh. The walk engine never touches it.
	Store VariantStore
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

// Measure is Run's measuring twin (see Program.Measure): Run's answer,
// replayed from the skeleton the variant's Program — drawn from the Store like
// any run's — holds when that skeleton certifies, else executed; the first
// measurement at a rank count is the execution that records it, and a variant
// whose recording touched an in-flight buffer is refused. Under the walk
// engine, and for a Runner without a Store (each of its Programs is new),
// every measurement is a recording execution, refused by the same rule. A
// caller that wants the walk's skeleton takes it from Record and replays it
// itself, as the harness's tiered check does.
func (r Runner) Measure(src string, np int, costs interp.CostModel, prof netsim.Profile) (res *interp.Result, replayed bool, err error) {
	if r.Engine == EngineWalk {
		return measureWalk(src, np, prof, costs)
	}
	p, err := r.get(src)
	if err != nil {
		return nil, false, err
	}
	return p.Measure(np, prof, costs)
}

// Record is Run that also records the run's skeleton, nil when no replay can
// stand for it (interp/skeleton.go), under either engine. It records afresh,
// whether or not the Program already holds a skeleton, and stores nothing on
// it: the caller owns what Record returns.
func (r Runner) Record(src string, np int, costs interp.CostModel, prof netsim.Profile) (*interp.Result, *interp.Skeleton, error) {
	if r.Engine != EngineWalk {
		p, err := r.get(src)
		if err != nil {
			return nil, nil, err
		}
		if p.routed == "" {
			p.Bytecode()
			return p.execute(np, prof, costs, !p.timed)
		}
		src = p.src
	}
	p, err := loadWalk(src, costs)
	if err != nil {
		return nil, nil, err
	}
	return p.Record(np, prof)
}

// get draws the compiled variant from the store, or compiles it afresh.
func (r Runner) get(src string) (*Program, error) {
	if r.Store != nil {
		return r.Store.Get(src)
	}
	return CompileSource(src)
}
