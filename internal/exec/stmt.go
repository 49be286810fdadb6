package exec

import (
	"repro/internal/ftn"
	"repro/internal/interp"
)

// stmt compiles one statement; nil means "compiles to nothing" (comments,
// CONTINUE).
func (c *comp) stmt(s ftn.Stmt) stmtFn {
	switch s := s.(type) {
	case *ftn.CommentStmt, *ftn.ContinueStmt:
		return nil
	case *ftn.AssignStmt:
		return c.assign(s)
	case *ftn.DoStmt:
		return c.do_(s)
	case *ftn.IfStmt:
		return c.if_(s)
	case *ftn.CallStmt:
		return c.call(s)
	case *ftn.PrintStmt:
		return c.print(s)
	case *ftn.ReturnStmt:
		return func(x *rctx, fr *frame) error { return errReturn }
	case *ftn.StopStmt:
		return func(x *rctx, fr *frame) error { return errStop }
	case *ftn.ExitStmt:
		return func(x *rctx, fr *frame) error { return errExit }
	case *ftn.CycleStmt:
		return func(x *rctx, fr *frame) error { return errCycle }
	}
	return errStmt(s.Pos(), "unsupported statement %T", s)
}

// stmts compiles a statement list.
func (c *comp) stmts(list []ftn.Stmt) []stmtFn {
	var out []stmtFn
	for _, s := range list {
		if fn := c.stmt(s); fn != nil {
			out = append(out, fn)
		}
	}
	return out
}

func (c *comp) assign(s *ftn.AssignStmt) stmtFn {
	rhs := c.expr(s.RHS)
	store := c.store(s.LHS)
	return func(x *rctx, fr *frame) error {
		v, err := rhs(x, fr)
		if err != nil {
			return err
		}
		return store(x, fr, v)
	}
}

// storeFn writes an already-evaluated value to a designator.
type storeFn func(x *rctx, fr *frame, v interp.Value) error

// store compiles a write to an assignable designator (the tree-walker's
// m.store): scalar stores charge Assign and coerce to the slot's kind,
// array-element stores resolve the array first, then subscripts, then
// charge Store.
func (c *comp) store(lhs ftn.Expr) storeFn {
	switch lhs := lhs.(type) {
	case *ftn.Ident:
		ptr := c.scalarPtr(lhs.Name, lhs.Pos())
		return func(x *rctx, fr *frame, v interp.Value) error {
			p, err := ptr(x, fr)
			if err != nil {
				return err
			}
			x.charge(x.costs.Assign)
			*p = interp.CoerceStore(*p, v)
			return nil
		}
	case *ftn.Ref:
		arrOf := c.arrayOf(lhs.Name)
		subs := make([]exprFn, len(lhs.Args))
		for i, a := range lhs.Args {
			subs[i] = c.expr(a)
		}
		pos := lhs.Pos()
		name := lhs.Name
		switch len(subs) {
		case 1:
			s0 := subs[0]
			return func(x *rctx, fr *frame, v interp.Value) error {
				a := arrOf(fr)
				if a == nil {
					return rte(pos, "assignment to %s, which is not an array", name)
				}
				v0, err := s0(x, fr)
				if err != nil {
					return err
				}
				x.charge(x.costs.Store)
				off, err := a.Idx1(v0.AsInt())
				if err != nil {
					return rte(pos, "%v", err)
				}
				a.RawSet(off, v)
				return nil
			}
		case 2:
			s0, s1 := subs[0], subs[1]
			return func(x *rctx, fr *frame, v interp.Value) error {
				a := arrOf(fr)
				if a == nil {
					return rte(pos, "assignment to %s, which is not an array", name)
				}
				v0, err := s0(x, fr)
				if err != nil {
					return err
				}
				v1, err := s1(x, fr)
				if err != nil {
					return err
				}
				x.charge(x.costs.Store)
				off, err := a.Idx2(v0.AsInt(), v1.AsInt())
				if err != nil {
					return rte(pos, "%v", err)
				}
				a.RawSet(off, v)
				return nil
			}
		case 3:
			s0, s1, s2 := subs[0], subs[1], subs[2]
			return func(x *rctx, fr *frame, v interp.Value) error {
				a := arrOf(fr)
				if a == nil {
					return rte(pos, "assignment to %s, which is not an array", name)
				}
				v0, err := s0(x, fr)
				if err != nil {
					return err
				}
				v1, err := s1(x, fr)
				if err != nil {
					return err
				}
				v2, err := s2(x, fr)
				if err != nil {
					return err
				}
				x.charge(x.costs.Store)
				off, err := a.Idx3(v0.AsInt(), v1.AsInt(), v2.AsInt())
				if err != nil {
					return rte(pos, "%v", err)
				}
				a.RawSet(off, v)
				return nil
			}
		}
		return func(x *rctx, fr *frame, v interp.Value) error {
			a := arrOf(fr)
			if a == nil {
				return rte(pos, "assignment to %s, which is not an array", name)
			}
			ix, err := evalInts(x, fr, subs)
			if err != nil {
				return err
			}
			x.charge(x.costs.Store)
			if err := a.Set(ix, v); err != nil {
				return rte(pos, "%v", err)
			}
			return nil
		}
	}
	err := rte(lhs.Pos(), "bad assignment target %T", lhs)
	return func(x *rctx, fr *frame, v interp.Value) error { return err }
}

func (c *comp) do_(s *ftn.DoStmt) stmtFn {
	loF := c.expr(s.Lo)
	hiF := c.expr(s.Hi)
	var stepF exprFn
	if s.Step != nil {
		stepF = c.expr(s.Step)
	}
	ptr := c.scalarPtr(s.Var, s.Pos())
	body := c.stmts(s.Body)
	pos := s.Pos()
	return func(x *rctx, fr *frame) error {
		loV, err := loF(x, fr)
		if err != nil {
			return err
		}
		hiV, err := hiF(x, fr)
		if err != nil {
			return err
		}
		step := int64(1)
		if stepF != nil {
			sv, err := stepF(x, fr)
			if err != nil {
				return err
			}
			step = sv.AsInt()
			if step == 0 {
				return rte(pos, "DO step is zero")
			}
		}
		lo, hi := loV.AsInt(), hiV.AsInt()
		// Fortran trip count, computed once.
		trips := (hi - lo + step) / step
		if trips < 0 {
			trips = 0
		}
		vp, err := ptr(x, fr)
		if err != nil {
			return err
		}
		v := lo
		for t := int64(0); t < trips; t++ {
			*vp = interp.IntVal(v)
			x.charge(x.costs.LoopIter)
			err := runStmts(x, fr, body)
			switch err {
			case nil, errCycle:
			case errExit:
				// EXIT leaves the DO variable at its current iteration value.
				return nil
			default:
				return err
			}
			v += step
		}
		*vp = interp.IntVal(v)
		return nil
	}
}

func (c *comp) if_(s *ftn.IfStmt) stmtFn {
	cond := c.expr(s.Cond)
	then := c.stmts(s.Then)
	els := c.stmts(s.Else)
	pos := s.Pos()
	return func(x *rctx, fr *frame) error {
		v, err := cond(x, fr)
		if err != nil {
			return err
		}
		x.charge(x.costs.Op)
		if v.Kind != interp.KBool {
			return rte(pos, "IF condition is not logical")
		}
		if v.B() {
			return runStmts(x, fr, then)
		}
		return runStmts(x, fr, els)
	}
}

func (c *comp) print(s *ftn.PrintStmt) stmtFn {
	args := make([]exprFn, len(s.Args))
	for i, a := range s.Args {
		args[i] = c.expr(a)
	}
	return func(x *rctx, fr *frame) error {
		vals := make([]interp.Value, len(args))
		for i, f := range args {
			v, err := f(x, fr)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		x.out = append(x.out, interp.FormatPrintLine(vals))
		return nil
	}
}
