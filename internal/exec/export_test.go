package exec

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
