package dep

import (
	"repro/internal/ftn"
)

// NestInfo is the analyzed form of one loop nest: the loops on the path to
// the innermost body plus every array reference found anywhere inside.
type NestInfo struct {
	Loops []Loop // outermost first (the path of the first/primary chain)
	Refs  []*Ref
	// ByArray groups references by array name.
	ByArray map[string][]*Ref
}

// Writes returns the write references to the named array.
func (n *NestInfo) Writes(array string) []*Ref {
	var out []*Ref
	for _, r := range n.ByArray[array] {
		if r.Write {
			out = append(out, r)
		}
	}
	return out
}

// scalarState tracks forward-substitutable scalar definitions while walking
// statements in order: "tx = ix + 1" lets later subscripts As(tx) be
// analyzed as As(ix+1). Assignments with non-affine right-hand sides poison
// the scalar.
type scalarState struct {
	defs   map[string]Affine
	poison map[string]bool
}

func newScalarState() *scalarState {
	return &scalarState{defs: map[string]Affine{}, poison: map[string]bool{}}
}

func (ss *scalarState) clone() *scalarState {
	c := newScalarState()
	for k, v := range ss.defs {
		c.defs[k] = v
	}
	for k, v := range ss.poison {
		c.poison[k] = v
	}
	return c
}

// invalidate removes knowledge of scalars defined in terms of loop variable
// v (used when leaving v's loop) and of v itself.
func (ss *scalarState) invalidate(v string) {
	for name, a := range ss.defs {
		if a.CoefOf(v) != 0 {
			delete(ss.defs, name)
			ss.poison[name] = true
		}
	}
}

// AnalyzeNest analyzes the loop nest rooted at do with the given constant
// environment (named parameter values). It returns loop and reference
// information for dependence queries. arrays maps a name to true when it is
// declared as an array (everything else is treated as a scalar).
func AnalyzeNest(do *ftn.DoStmt, consts map[string]int64, arrays map[string]bool) *NestInfo {
	info := &NestInfo{ByArray: map[string][]*Ref{}}
	order := 0
	loopID := 0
	ss := newScalarState()
	var walk func(stmts []ftn.Stmt, loops []Loop, ss *scalarState)

	env := func(loops []Loop) *Env {
		lv := map[string]bool{}
		for _, lp := range loops {
			lv[lp.Var] = true
		}
		return &Env{LoopVars: lv, Consts: consts}
	}

	// affineOf converts e under loops, substituting known scalars first.
	affineOf := func(e ftn.Expr, loops []Loop, ss *scalarState) (Affine, bool) {
		a, ok := FromExpr(e, env(loops))
		if !ok {
			return Affine{}, false
		}
		// Substitute scalar definitions into symbolic terms.
		for sym, coef := range a.Syms {
			if ss.poison[sym] {
				return Affine{}, false
			}
			if d, okd := ss.defs[sym]; okd {
				a = a.Add(d.Scale(coef))
				delete(a.Syms, sym)
			}
		}
		return a, true
	}

	addRef := func(r *ftn.Ref, write bool, loops []Loop, ss *scalarState) {
		ref := &Ref{
			Array: r.Name,
			Write: write,
			Loops: append([]Loop(nil), loops...),
			Order: order,
		}
		order++
		for _, sub := range r.Args {
			a, ok := affineOf(sub, loops, ss)
			if !ok {
				ref.NonAffine = true
				a = NewAffine(0)
			}
			ref.Subs = append(ref.Subs, a)
		}
		info.Refs = append(info.Refs, ref)
		info.ByArray[r.Name] = append(info.ByArray[r.Name], ref)
	}

	// collectReads walks an expression adding read refs for arrays.
	var collectReads func(e ftn.Expr, loops []Loop, ss *scalarState)
	collectReads = func(e ftn.Expr, loops []Loop, ss *scalarState) {
		ftn.WalkExpr(e, func(n ftn.Expr) bool {
			if r, ok := n.(*ftn.Ref); ok && arrays[r.Name] {
				addRef(r, false, loops, ss)
				// Subscripts may themselves reference arrays.
				for _, a := range r.Args {
					collectReads(a, loops, ss)
				}
				return false
			}
			return true
		})
	}

	walk = func(stmts []ftn.Stmt, loops []Loop, ss *scalarState) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ftn.AssignStmt:
				collectReads(s.RHS, loops, ss)
				switch lhs := s.LHS.(type) {
				case *ftn.Ref:
					if arrays[lhs.Name] {
						for _, a := range lhs.Args {
							collectReads(a, loops, ss)
						}
						addRef(lhs, true, loops, ss)
					}
				case *ftn.Ident:
					// Scalar definition: track for forward substitution.
					if a, ok := affineOf(s.RHS, loops, ss); ok {
						ss.defs[lhs.Name] = a
						delete(ss.poison, lhs.Name)
					} else {
						delete(ss.defs, lhs.Name)
						ss.poison[lhs.Name] = true
					}
				}
			case *ftn.DoStmt:
				en := env(loops)
				lo, okLo := FromExpr(s.Lo, en)
				hi, okHi := FromExpr(s.Hi, en)
				step := int64(1)
				if s.Step != nil {
					st, okSt := FromExpr(s.Step, en)
					if !okSt || !st.IsConst() || st.Const == 0 {
						step = 0 // analysis will answer Unknown
					} else {
						step = st.Const
					}
				}
				if !okLo {
					lo = NewAffine(0)
					lo.Syms["?lo:"+s.Var] = 1
				}
				if !okHi {
					hi = NewAffine(0)
					hi.Syms["?hi:"+s.Var] = 1
				}
				loopID++
				lp := Loop{ID: loopID, Var: s.Var, Lo: lo, Hi: hi, Step: step}
				inner := append(append([]Loop(nil), loops...), lp)
				// The loop variable invalidates scalar defs built on it,
				// and scalars defined inside are only valid inside.
				ssIn := ss.clone()
				delete(ssIn.defs, s.Var)
				walk(s.Body, inner, ssIn)
				// After the loop: any scalar (re)defined inside is unknown.
				for name := range ssIn.defs {
					if _, had := ss.defs[name]; !had || !ssIn.defs[name].Equal(ss.defs[name]) {
						ss.poison[name] = true
						delete(ss.defs, name)
					}
				}
				for name := range ssIn.poison {
					ss.poison[name] = true
					delete(ss.defs, name)
				}
				ss.invalidate(s.Var)
				if len(loops) == 0 && len(info.Loops) == 0 {
					// Record the primary loop chain (first path).
					info.Loops = chainOf(s, consts)
				}
			case *ftn.IfStmt:
				collectReads(s.Cond, loops, ss)
				ssT := ss.clone()
				ssE := ss.clone()
				walk(s.Then, loops, ssT)
				walk(s.Else, loops, ssE)
				// Conservative merge: anything defined or poisoned in a
				// branch becomes unknown afterwards.
				for _, b := range []*scalarState{ssT, ssE} {
					for name := range b.defs {
						if _, had := ss.defs[name]; !had || !b.defs[name].Equal(ss.defs[name]) {
							ss.poison[name] = true
							delete(ss.defs, name)
						}
					}
					for name := range b.poison {
						ss.poison[name] = true
						delete(ss.defs, name)
					}
				}
			case *ftn.CallStmt:
				for _, a := range s.Args {
					collectReads(a, loops, ss)
					// An array passed to a procedure may be written: record
					// a conservative whole-array write reference.
					if r, ok := a.(*ftn.Ref); ok && arrays[r.Name] {
						w := &Ref{Array: r.Name, Write: true, Loops: append([]Loop(nil), loops...), Order: order, NonAffine: true}
						order++
						for range r.Args {
							w.Subs = append(w.Subs, NewAffine(0))
						}
						info.Refs = append(info.Refs, w)
						info.ByArray[r.Name] = append(info.ByArray[r.Name], w)
					}
					if id, ok := a.(*ftn.Ident); ok {
						if arrays[id.Name] {
							w := &Ref{Array: id.Name, Write: true, Loops: append([]Loop(nil), loops...), Order: order, NonAffine: true}
							order++
							info.Refs = append(info.Refs, w)
							info.ByArray[id.Name] = append(info.ByArray[id.Name], w)
						} else {
							// Scalar passed by reference: may be modified.
							delete(ss.defs, id.Name)
							ss.poison[id.Name] = true
						}
					}
				}
			case *ftn.PrintStmt:
				for _, a := range s.Args {
					collectReads(a, loops, ss)
				}
			}
		}
	}

	// Analyze the nest as a whole (the root DO is part of the loop stack).
	walk([]ftn.Stmt{do}, nil, ss)
	return info
}

// chainOf extracts the perfect-nest chain starting at do: the root loop and
// each singleton DO child, used for tiling decisions. The chain's loops are
// the first the nest walk numbers, one per level, so level l has ID l+1.
func chainOf(do *ftn.DoStmt, consts map[string]int64) []Loop {
	var loops []Loop
	cur := do
	var outer []Loop
	for {
		lv := map[string]bool{}
		for _, lp := range outer {
			lv[lp.Var] = true
		}
		en := &Env{LoopVars: lv, Consts: consts}
		lo, okLo := FromExpr(cur.Lo, en)
		hi, okHi := FromExpr(cur.Hi, en)
		if !okLo {
			lo = NewAffine(0)
			lo.Syms["?lo:"+cur.Var] = 1
		}
		if !okHi {
			hi = NewAffine(0)
			hi.Syms["?hi:"+cur.Var] = 1
		}
		step := int64(1)
		if cur.Step != nil {
			st, ok := FromExpr(cur.Step, en)
			if ok && st.IsConst() && st.Const != 0 {
				step = st.Const
			} else {
				step = 0
			}
		}
		lp := Loop{ID: len(loops) + 1, Var: cur.Var, Lo: lo, Hi: hi, Step: step}
		loops = append(loops, lp)
		outer = append(outer, lp)
		// Descend only through singleton DO bodies (perfect nesting).
		next := onlyDo(cur.Body)
		if next == nil {
			return loops
		}
		cur = next
	}
}

// onlyDo returns the single DO statement of body when body contains exactly
// one significant statement and it is a DO; comments are ignored.
func onlyDo(body []ftn.Stmt) *ftn.DoStmt {
	var found *ftn.DoStmt
	for _, s := range body {
		switch s := s.(type) {
		case *ftn.CommentStmt:
		case *ftn.DoStmt:
			if found != nil {
				return nil
			}
			found = s
		default:
			return nil
		}
	}
	return found
}
