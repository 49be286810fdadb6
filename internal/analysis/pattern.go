package analysis

import (
	"repro/internal/dep"
	"repro/internal/ftn"
)

// classifyPattern decides direct vs. indirect (§3.2) and runs the
// pattern-specific analyses of §3.3/§3.4 plus the node-loop analysis of
// §3.5, filling op in place.
func classifyPattern(file *ftn.File, op *Opportunity, opts Options) error {
	as := op.Call.As

	// Inspect the assignments to As inside ℓ. The indirect pattern (§3.2)
	// is specifically a plain element copy "As(...) = At(ix)" from a
	// temporary filled by a procedure; an RHS that merely *uses* other
	// arrays in a computation is still the direct pattern (the write
	// region of As is what matters for pre-pushing).
	var directWrites, indirectWrites []*ftn.AssignStmt
	ftn.Inspect(op.L.Body, func(s ftn.Stmt) bool {
		a, ok := s.(*ftn.AssignStmt)
		if !ok {
			return true
		}
		lhs, ok := a.LHS.(*ftn.Ref)
		if !ok || lhs.Name != as {
			return true
		}
		if ref, isRef := a.RHS.(*ftn.Ref); isRef && op.Arrays[ref.Name] {
			indirectWrites = append(indirectWrites, a)
		} else {
			directWrites = append(directWrites, a)
		}
		return true
	})

	switch {
	case len(indirectWrites) > 0 && len(directWrites) == 0:
		op.Pattern = PatternIndirect
		return analyzeIndirect(file, op, indirectWrites, opts)
	case len(directWrites) > 0 && len(indirectWrites) == 0:
		op.Pattern = PatternDirect
		return analyzeDirect(op, opts)
	case len(directWrites) == 0 && len(indirectWrites) == 0:
		// ℓ mutates As only through a call: treat as indirect without a
		// copy loop — not transformable by the §3.4 technique.
		return reject(op.L.Pos(), "loop mutates %s only through procedure calls; no copy loop to analyze", as)
	default:
		return reject(op.L.Pos(), "mixed direct and indirect writes to %s", as)
	}
}

// rhsArray returns the name of an array referenced anywhere in e, or "".
func rhsArray(e ftn.Expr, arrays map[string]bool) string {
	found := ""
	ftn.WalkExpr(e, func(n ftn.Expr) bool {
		if r, ok := n.(*ftn.Ref); ok && arrays[r.Name] && found == "" {
			found = r.Name
		}
		return found == ""
	})
	return found
}

// analyzeDirect performs the §3.3 analysis: output-dependence safety and
// write-reference collection, then the node-loop analysis.
func analyzeDirect(op *Opportunity, opts Options) error {
	op.Nest = dep.AnalyzeNest(op.L, op.Consts, op.Arrays)
	writes := op.Nest.Writes(op.Call.As)
	if len(writes) == 0 {
		return reject(op.L.Pos(), "no writes to %s found in the loop nest", op.Call.As)
	}
	for _, w := range writes {
		if w.NonAffine {
			return reject(op.L.Pos(), "write to %s has a non-affine subscript", op.Call.As)
		}
		if len(w.Subs) != len(op.AsDims) {
			return reject(op.L.Pos(), "write to %s has rank %d, declared rank %d", op.Call.As, len(w.Subs), len(op.AsDims))
		}
	}
	op.WriteRefs = writes

	// Safe references: no output dependence leaves them (§3.3).
	safe := ProveOnce(op, "safe-refs", func() []bool {
		safe := make([]bool, len(writes))
		for i, w := range writes {
			safe[i] = dep.HasOutputDepAfter(w, writes) == dep.Infeasible
		}
		return safe
	})
	for i, w := range writes {
		if safe[i] {
			op.SafeRefs = append(op.SafeRefs, w)
		}
	}
	if len(op.SafeRefs) == 0 {
		return reject(op.L.Pos(), "every write to %s is overwritten later (no safe references)", op.Call.As)
	}
	op.note("%d of %d writes to %s are safe references", len(op.SafeRefs), len(op.WriteRefs), op.Call.As)

	// The loop must have no conditional writes to As (§2: "no branches in
	// the code that stores data into the array").
	if condWrite(op.L.Body, op.Call.As) {
		return reject(op.L.Pos(), "conditional write to %s inside the loop nest", op.Call.As)
	}

	return nodeLoopAnalysis(op)
}

// condWrite reports whether any write to array occurs under an IF.
func condWrite(stmts []ftn.Stmt, array string) bool {
	found := false
	var walk func(list []ftn.Stmt, under bool)
	walk = func(list []ftn.Stmt, under bool) {
		for _, s := range list {
			switch s := s.(type) {
			case *ftn.AssignStmt:
				if ref, ok := s.LHS.(*ftn.Ref); ok && ref.Name == array && under {
					found = true
				}
			case *ftn.DoStmt:
				walk(s.Body, under)
			case *ftn.IfStmt:
				walk(s.Then, true)
				walk(s.Else, true)
			}
		}
	}
	walk(stmts, false)
	return found
}

// nodeLoopAnalysis locates the node loop — the loop traversing the last
// dimension of As — relative to ℓ's tiled (outermost) loop (§3.5).
func nodeLoopAnalysis(op *Opportunity) error {
	chain := op.Nest.Loops
	if len(chain) == 0 {
		return reject(op.L.Pos(), "empty loop chain")
	}
	ref := op.SafeRefs[0]
	last := ref.Subs[len(ref.Subs)-1]
	level := -1
	for i, lp := range chain {
		if last.CoefOf(lp.Var) != 0 {
			level = i
		}
	}
	if level < 0 {
		op.NodeCase = NodeLoopAbsent
		return reject(op.L.Pos(), "last dimension of %s is not traversed by the loop nest", op.Call.As)
	}
	op.NodeLoopLevel = level
	if level > 0 {
		op.NodeCase = NodeLoopInner
		op.note("node loop %q is inner (level %d): Fig. 4 all-peers exchange per tile", chain[level].Var, level)
		return nil
	}
	op.NodeCase = NodeLoopOutermost
	// Try loop interchange (§3.5): find an inner level whose loop can be
	// swapped with the outermost (0: none).
	with := ProveOnce(op, "interchange", func() int {
		for j := 1; j < len(chain); j++ {
			if legal, exact := dep.InterchangeLegal(op.Nest.Refs, 0, j); legal && exact {
				return j
			}
		}
		return 0
	})
	if with > 0 {
		op.InterchangeOK = true
		op.InterchangeWith = with
		op.InterchangeBlockElems = interchangeBlockElems(op, chain[with].Var)
		op.note("interchange of %q and %q is legal: node loop moves inward (block granularity %d elems × K)",
			chain[0].Var, chain[with].Var, op.InterchangeBlockElems)
		return nil
	}
	op.note("node loop %q is outermost and interchange is not possible: subset sends per tile (congestion caveat)", chain[0].Var)
	return nil
}

// interchangeBlockElems estimates the contiguous run the Fig. 4 exchange
// would send per message after interchanging newTiledVar to the outermost
// position: the product of the extents of the As dimensions before the one
// newTiledVar subscripts. Unknown extents count as large (favoring
// interchange), matching the conservative direction for congestion.
func interchangeBlockElems(op *Opportunity, newTiledVar string) int64 {
	ref := op.SafeRefs[0]
	blockDim := 0
	for d, sub := range ref.Subs {
		if sub.CoefOf(newTiledVar) != 0 {
			blockDim = d
			break
		}
	}
	elems := int64(1)
	for d := 0; d < blockDim; d++ {
		ext, ok := op.AsDims[d].Extent().Bind(op.Consts).Eval(nil)
		if !ok {
			return 1 << 20 // unknown: assume large
		}
		elems *= ext
	}
	return elems
}
