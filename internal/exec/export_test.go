package exec

// Strip-executor internals the external differential tests steer by.

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
