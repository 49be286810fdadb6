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
// Program.measure). A Runner without a Store gets a new Program on every
// call, so each of its measurements is a recording execution, refused by the
// same rule.
func (r Runner) Measure(src string, np int, costs interp.CostModel, prof netsim.Profile) (res *interp.Result, replayed bool, err error) {
	p, err := r.get(src)
	if err != nil {
		return nil, false, err
	}
	return p.measure(r.Engine, np, prof, costs)
}

// get draws the compiled variant from the store, or compiles it afresh.
func (r Runner) get(src string) (*Program, error) {
	if r.Store != nil {
		return r.Store.Get(src)
	}
	return CompileSource(src)
}
