package analysis

import (
	"slices"

	"repro/internal/ftn"
)

// analyzeIndirect performs the §3.4 analysis: recognize the copy loop ℓcp,
// locate the procedure call that fills the temporary At, and verify that
// the copy realizes a contiguous whole-slab mapping (At element j of outer
// iteration iy lands at linear As offset (iy-iyLo)·Count + (j-atLo)), which
// is the condition under which removing ℓcp and sending At directly
// preserves the original data flow At --copy--> As --send--> Ar.
func analyzeIndirect(file *ftn.File, op *Opportunity, writes []*ftn.AssignStmt, opts Options) error {
	if len(writes) != 1 {
		return reject(op.L.Pos(), "indirect pattern needs exactly one copy assignment to %s, found %d", op.Call.As, len(writes))
	}
	w := writes[0]
	atName := rhsArray(w.RHS, op.Arrays)

	// ℓcp must be a direct child of ℓ whose body contains only scalar
	// assignments plus the copy assignment.
	cl := &CopyLoop{At: atName, LoopIndex: -1, CallIndex: -1}
	for i, s := range op.L.Body {
		if do, ok := s.(*ftn.DoStmt); ok && containsStmt(do.Body, w) {
			cl.Loop = do
			cl.LoopIndex = i
			break
		}
	}
	if cl.Loop == nil {
		return reject(w.Pos(), "copy assignment is not inside a copy loop that is a direct child of the outer loop")
	}
	for _, s := range cl.Loop.Body {
		switch s := s.(type) {
		case *ftn.AssignStmt:
			if _, ok := s.LHS.(*ftn.Ident); !ok && s != w {
				return reject(s.Pos(), "copy loop contains an extra array assignment")
			}
		case *ftn.CommentStmt:
		default:
			return reject(s.Pos(), "copy loop contains a non-assignment statement")
		}
	}

	// The RHS must be a single reference to At.
	rhs, ok := w.RHS.(*ftn.Ref)
	if !ok || rhs.Name != atName {
		return reject(w.Pos(), "copy RHS is not a plain reference to %s", atName)
	}
	if len(rhs.Args) != 1 {
		return reject(w.Pos(), "temporary %s must be one-dimensional in the copy", atName)
	}

	// The call that fills At: a direct child of ℓ preceding ℓcp.
	for i := cl.LoopIndex - 1; i >= 0; i-- {
		call, ok := op.L.Body[i].(*ftn.CallStmt)
		if !ok {
			continue
		}
		for argPos, a := range call.Args {
			if n, okn := bufferName(a); okn && n == atName {
				cl.Call = call
				cl.CallIndex = i
				cl.CallArgPos = argPos
				break
			}
		}
		if cl.Call != nil {
			break
		}
	}
	if cl.Call == nil {
		return reject(cl.Loop.Pos(), "no call filling %s precedes the copy loop", atName)
	}
	// The callee may be in-file; if not, ask the oracle whether it writes At.
	if sub := file.Subroutine(cl.Call.Name); sub == nil {
		if wr, answered := opts.Oracle.ProcedureWrites(cl.Call.Name, atName); answered {
			op.SemiAuto = true
			if !wr {
				return reject(cl.Call.Pos(), "user says %s does not write %s", cl.Call.Name, atName)
			}
		} else {
			op.note("assuming %s writes %s (source unavailable; conservative)", cl.Call.Name, atName)
		}
	}

	// Gather the numeric facts needed for mapping verification.
	st := ftn.Symbols(op.Unit)
	cl.AtDims = declTriplets(st, atName, op.Consts)
	if len(cl.AtDims) != 1 {
		return reject(w.Pos(), "temporary %s must be declared one-dimensional", atName)
	}
	type verdict struct {
		count int64 // elements per slab, when err is nil
		err   error
	}
	slab := ProveOnce(op, "slab-mapping", func() verdict {
		err := verifySlabMapping(op, cl, w, rhs)
		return verdict{cl.Count, err}
	})
	if slab.err != nil {
		return slab.err
	}
	cl.Count = slab.count
	op.CopyLoop = cl
	op.NodeCase = NodeLoopOutermost // the outer ℓ loop walks As's last dim
	op.NodeLoopLevel = 0
	op.note("copy loop removed: %s slabs of %d elements map to whole %s planes", atName, cl.Count, op.Call.As)
	return nil
}

// containsStmt reports whether target appears in stmts (recursively).
func containsStmt(stmts []ftn.Stmt, target ftn.Stmt) bool {
	found := false
	ftn.Inspect(stmts, func(s ftn.Stmt) bool {
		if s == target {
			found = true
		}
		return !found
	})
	return found
}

// observeSlab, when set, is told each slab-mapping proof as it ends: its
// inputs, the elements it evaluated and its verdict. Only tests set it.
var observeSlab func(op *Opportunity, cl *CopyLoop, w *ftn.AssignStmt, rhs *ftn.Ref, elements int64, err error)

// verifySlabMapping checks that executing ℓcp for every outer iteration
// writes At's elements to consecutive whole slabs of As in order: linear As
// offset of the element copied from At(j) at outer value iy equals
// (iy-iyLo)·Count + (j-atLo), and that the slabs exactly tile As. This is
// what makes At -> As -> Ar equivalent to At -> Ar (§3.4).
//
// The first slab is checked element by element, and so is every slab when
// some code reads both loop variables, ix (ℓcp's) and iy (ℓ's). A code's
// class is the union of the classes of the slots it reads; a body scalar
// read before the body assigns it carries a value over from the previous
// element, so it reads both. Otherwise off - want splits as A(ix) + B(iy) in
// wrapping int64 arithmetic: each subscript, slabBase and j is in one class,
// and reduction mod 2⁶⁴ is a ring homomorphism. The first slab proved A
// constant over its ix range and every ix-only code defined and in bounds
// there, and an iy-only code is constant within a slab. So a later slab whose
// copy loop starts where the first one did is checked at its first element
// alone: every element has that element's off - want, and the walk would
// fail there first, with the same message. A slab whose copy loop starts
// elsewhere takes the same loop to cpHi. Codes are resolved to slots up front.
func verifySlabMapping(op *Opportunity, cl *CopyLoop, w *ftn.AssignStmt, rhs *ftn.Ref) (err error) {
	var elements int64 // evaluated, for observeSlab
	if observeSlab != nil {
		defer func() { observeSlab(op, cl, w, rhs, elements, err) }()
	}
	// Numeric As dims.
	var lo, hi, stride []int64
	strideAcc := int64(1)
	for d, tdim := range op.AsDims {
		l, ok1 := tdim.Lo.Bind(op.Consts).Eval(nil)
		h, ok2 := tdim.Hi.Bind(op.Consts).Eval(nil)
		if !ok1 || !ok2 {
			return reject(w.Pos(), "As dimension %d is not numeric; indirect verification needs numeric bounds", d+1)
		}
		lo = append(lo, l)
		hi = append(hi, h)
		stride = append(stride, strideAcc)
		strideAcc *= h - l + 1
	}
	totalAs := strideAcc

	atLo, ok := cl.AtDims[0].Lo.Bind(op.Consts).Eval(nil)
	if !ok {
		return reject(w.Pos(), "At lower bound is not numeric")
	}

	// Resolve everything the enumeration evaluates, then make the environment:
	// constants are defined, other names not until the walk assigns them.
	var sc scope
	bounds := func(do *ftn.DoStmt) (lo, hi, step code) {
		if do.Step != nil {
			step = sc.resolve(do.Step)
		}
		return sc.resolve(do.Lo), sc.resolve(do.Hi), step
	}
	outerLoC, outerHiC, outerStepC := bounds(op.L)
	cpLoC, cpHiC, cpStepC := bounds(cl.Loop)
	outerVar, cpVar := sc.slotOf(op.L.Var), sc.slotOf(cl.Loop.Var)
	type scalarDef struct {
		stmt *ftn.AssignStmt
		slot int
		rhs  code
	}
	var scalars []scalarDef // the copy loop body's scalar assignments, in order
	for _, s := range cl.Loop.Body {
		if a, ok := s.(*ftn.AssignStmt); ok && a != w {
			scalars = append(scalars, scalarDef{a, sc.slotOf(a.LHS.(*ftn.Ident).Name), sc.resolve(a.RHS)})
		}
	}
	lhs := w.LHS.(*ftn.Ref)
	subs := make([]code, len(lhs.Args))
	for d, sub := range lhs.Args {
		subs[d] = sc.resolve(sub)
	}
	atSub := sc.resolve(rhs.Args[0])
	en := sc.newEnv(op.Consts)

	// Class the codes by the loop variables they can read, in the order the
	// body runs them. reads is each slot's class as the element stands.
	const byIx, byIy = 1, 2
	reads := make([]uint8, len(sc.names))
	reads[outerVar] = byIy
	reads[cpVar] |= byIx
	for _, sd := range scalars {
		reads[sd.slot] = byIx | byIy // carried over from the previous element
	}
	separable := true // no code reads both
	classOf := func(c code) (m uint8) {
		for _, in := range c {
			if in.op == opVar {
				m |= reads[in.k]
			}
		}
		separable = separable && m != byIx|byIy
		return m
	}
	for _, sd := range scalars {
		reads[sd.slot] = classOf(sd.rhs)
	}
	for _, sub := range subs {
		classOf(sub)
	}
	classOf(atSub)
	var firstLo int64 // the first slab's cpLo
	var last []int64  // the environment the first slab's last element left

	outerLo, ok1 := en.run(outerLoC)
	outerHi, ok2 := en.run(outerHiC)
	if !ok1 || !ok2 {
		return reject(op.L.Pos(), "outer loop bounds are not numeric")
	}
	if outerStepC != nil {
		if s, oks := en.run(outerStepC); !oks || s != 1 {
			return reject(op.L.Pos(), "outer loop step must be 1 for the indirect transformation")
		}
	}

	var count int64 // elements per slab: the first slab's copy trips, 0 when there is none
	for iy := outerLo; iy <= outerHi; iy++ {
		en.set(outerVar, iy)
		cpLo, okl := en.run(cpLoC)
		cpHi, okh := en.run(cpHiC)
		if !okl || !okh {
			return reject(cl.Loop.Pos(), "copy loop bounds are not numeric")
		}
		if cpStepC != nil {
			if s, oks := en.run(cpStepC); !oks || s != 1 {
				return reject(cl.Loop.Pos(), "copy loop step must be 1")
			}
		}
		n := max(0, cpHi-cpLo+1)
		if iy == outerLo {
			count = n
		} else if count != n {
			return reject(cl.Loop.Pos(), "copy loop trip count varies across outer iterations (%d vs %d)", count, n)
		}
		slabBase := (iy - outerLo) * count
		oneElement := separable && iy > outerLo && cpLo == firstLo && count > 0
		end := cpHi
		if oneElement {
			end = cpLo
		}
		for ix := cpLo; ix <= end; ix++ {
			elements++
			en.set(cpVar, ix)
			// Execute the scalar assignments of the copy loop body.
			for _, sd := range scalars {
				v, okv := en.run(sd.rhs)
				if !okv {
					return reject(sd.stmt.Pos(), "cannot evaluate scalar %s in copy loop", sc.names[sd.slot])
				}
				en.set(sd.slot, v)
			}
			// Destination offset.
			if len(subs) != len(op.AsDims) {
				return reject(w.Pos(), "copy LHS rank mismatch")
			}
			off := int64(0)
			for d, sub := range subs {
				v, okv := en.run(sub)
				if !okv {
					return reject(w.Pos(), "cannot evaluate As subscript %d", d+1)
				}
				if v < lo[d] || v > hi[d] {
					return reject(w.Pos(), "As subscript %d out of bounds (%d not in %d:%d)", d+1, v, lo[d], hi[d])
				}
				off += (v - lo[d]) * stride[d]
			}
			// Source index.
			j, okj := en.run(atSub)
			if !okj {
				return reject(w.Pos(), "cannot evaluate At subscript")
			}
			want := slabBase + (j - atLo)
			if off != want {
				return reject(w.Pos(),
					"copy mapping is not a whole-slab mapping: at %s=%d, %s=%d the element lands at offset %d, want %d",
					op.L.Var, iy, cl.Loop.Var, ix, off, want)
			}
		}
		if iy == outerLo {
			firstLo, last = cpLo, slices.Clone(en.val)
		} else if oneElement {
			// Leave the environment as the slab's last element would: the
			// next slab's bounds may read an ix-only scalar.
			for _, sd := range scalars {
				if reads[sd.slot] == byIx {
					en.set(sd.slot, last[sd.slot])
				}
			}
		}
		en.unset(cpVar) // ℓcp's variable is not a value the next bounds may use
	}
	// The slabs must exactly tile As.
	if covered := max(0, outerHi-outerLo+1) * count; covered != totalAs {
		return reject(w.Pos(), "slabs cover %d elements but %s has %d", covered, op.Call.As, totalAs)
	}
	cl.Count = count
	return nil
}
