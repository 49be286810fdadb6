package exec

import (
	"repro/internal/interp"
	"repro/internal/netsim"
)

// Internals the external differential tests steer by.

// StripLen and StripMin are the strip executor's two constants.
const (
	StripLen = stripLen
	StripMin = stripMin
)

// StripEligible reports, for each innermost DO loop of the lowered main
// unit in program order, whether it runs strip-wise.
func (p *Program) StripEligible() []bool {
	var out []bool
	for _, fd := range p.Bytecode().fors {
		if fd.inner {
			out = append(out, fd.nvec > 0)
		}
	}
	return out
}

// Routed reports where and why the program is not lowered — RunBytecode runs
// the walker on its source — or "" when every unit lowers.
func (p *Program) Routed() string { return p.routed }

// Record is Run that also records the run's skeleton, nil when no replay can
// stand for it (interp/skeleton.go), under either engine. It records afresh,
// whether or not the Program already holds a skeleton, and stores nothing on
// it: the caller owns what Record returns.
func (r Runner) Record(src string, np int, costs interp.CostModel, prof netsim.Profile) (*interp.Result, *interp.Skeleton, error) {
	p, err := r.get(src)
	if err != nil {
		return nil, nil, err
	}
	return p.run(r.Engine, np, prof, costs, true)
}
