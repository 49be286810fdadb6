package core

// DropProofs makes every later Apply on p derive its proofs afresh — the
// behaviour a Program had before it kept an analysis.ProofMemo.
func DropProofs(p *Program) { p.proofs = nil }

// ShareProofs makes dst read (and add to) src's proofs, which is how a test
// hands a Program verdicts that are not true of its source.
func ShareProofs(dst, src *Program) { dst.proofs = src.proofs }
