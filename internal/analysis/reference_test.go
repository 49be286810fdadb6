package analysis

import "repro/internal/ftn"

// referenceSlabMapping is the §3.4 slab check as it stood before it learned
// to stop after one element of each later slab: every element of As is
// evaluated, in order. It is kept verbatim, only renamed, as the reference
// the check is held to (TestSlabMappingMatchesReference, FuzzSlabMapping).
func referenceSlabMapping(op *Opportunity, cl *CopyLoop, w *ftn.AssignStmt, rhs *ftn.Ref) error {
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
		for ix := cpLo; ix <= cpHi; ix++ {
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
		en.unset(cpVar) // ℓcp's variable is not a value the next bounds may use
	}
	// The slabs must exactly tile As.
	if covered := max(0, outerHi-outerLo+1) * count; covered != totalAs {
		return reject(w.Pos(), "slabs cover %d elements but %s has %d", covered, op.Call.As, totalAs)
	}
	cl.Count = count
	return nil
}
