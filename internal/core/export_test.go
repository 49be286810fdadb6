package core

// DropProofs makes every later Apply on p derive its proofs afresh — the
// behaviour a Program had before it kept an analysis.ProofMemo.
func DropProofs(p *Program) {
	p.proofs = nil
	p.forget()
}

// ShareProofs makes dst read (and add to) src's proofs, which is how a test
// hands a Program verdicts that are not true of its source.
func ShareProofs(dst, src *Program) {
	dst.proofs = src.proofs
	dst.forget()
}

// Locates returns how many sites Apply has located in p's clones.
func Locates(p *Program) int64 { return p.locates.Load() }

// Misjudge makes every verdict p has cached claim one more message per tile
// than its site's rewrite posts, and forgets p's texts: how a test makes a
// rewrite disagree with the decision made for it.
func Misjudge(p *Program) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, v := range p.verdicts {
		if v.res != nil {
			res := *v.res
			res.MessagesTile++
			v.res = &res
			p.verdicts[k] = v
		}
	}
	p.memo = map[string]applied{}
}

// Misnote adds a note to every site p has located, and forgets p's texts:
// how a test makes a site locate in a clone unlike the decision made for it,
// whose report would show the note.
func Misnote(p *Program) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, set := range p.located {
		for _, op := range set.ops {
			op.Notes = append(op.Notes[:len(op.Notes):len(op.Notes)], "misnoted")
		}
	}
	p.memo = map[string]applied{}
}
