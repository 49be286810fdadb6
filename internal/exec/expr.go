package exec

import (
	"repro/internal/ftn"
	"repro/internal/interp"
)

// expr compiles an expression. Every closure replicates the tree-walker's
// evaluation order and cost charges exactly — the same operations are
// charged at the same points, so virtual times agree to the nanosecond.
func (c *comp) expr(e ftn.Expr) exprFn {
	switch e := e.(type) {
	case *ftn.IntLit:
		v := interp.IntVal(e.Value)
		return func(x *rctx, fr *frame) (interp.Value, error) { return v, nil }
	case *ftn.RealLit:
		v := interp.RealVal(e.Value)
		return func(x *rctx, fr *frame) (interp.Value, error) { return v, nil }
	case *ftn.StrLit:
		v := interp.StrVal(e.Value)
		return func(x *rctx, fr *frame) (interp.Value, error) { return v, nil }
	case *ftn.BoolLit:
		v := interp.BoolVal(e.Value)
		return func(x *rctx, fr *frame) (interp.Value, error) { return v, nil }
	case *ftn.Ident:
		return c.identRead(e)
	case *ftn.Unary:
		return c.unary(e)
	case *ftn.Binary:
		return c.binary(e)
	case *ftn.Ref:
		return c.ref(e)
	}
	pos := e.Pos()
	err := rte(pos, "unsupported expression %T", e)
	return func(x *rctx, fr *frame) (interp.Value, error) { return interp.Value{}, err }
}

func (c *comp) unary(e *ftn.Unary) exprFn {
	xf := c.expr(e.X)
	pos := e.Pos()
	switch e.Op {
	case "-":
		return func(x *rctx, fr *frame) (interp.Value, error) {
			v, err := xf(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			x.charge(x.costs.Op)
			if v.Kind == interp.KInt {
				return interp.IntVal(-v.I), nil
			}
			return interp.RealVal(-v.AsReal()), nil
		}
	case "+":
		return func(x *rctx, fr *frame) (interp.Value, error) {
			v, err := xf(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			x.charge(x.costs.Op)
			return v, nil
		}
	case ".not.":
		return func(x *rctx, fr *frame) (interp.Value, error) {
			v, err := xf(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			x.charge(x.costs.Op)
			if v.Kind != interp.KBool {
				return interp.Value{}, rte(pos, ".not. of non-logical")
			}
			return interp.BoolVal(!v.B()), nil
		}
	}
	op := e.Op
	return func(x *rctx, fr *frame) (interp.Value, error) {
		v, err := xf(x, fr)
		if err != nil {
			return interp.Value{}, err
		}
		x.charge(x.costs.Op)
		_ = v
		return interp.Value{}, rte(pos, "bad unary operator %q", op)
	}
}

func (c *comp) binary(e *ftn.Binary) exprFn {
	xf := c.expr(e.X)
	yf := c.expr(e.Y)
	pos := e.Pos()
	op := e.Op
	switch op {
	case ".and.", ".or.":
		isAnd := op == ".and."
		return func(x *rctx, fr *frame) (interp.Value, error) {
			xv, err := xf(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			if xv.Kind != interp.KBool {
				return interp.Value{}, rte(pos, "%s of non-logical", op)
			}
			x.charge(x.costs.Op)
			if isAnd && !xv.B() {
				return interp.BoolVal(false), nil
			}
			if !isAnd && xv.B() {
				return interp.BoolVal(true), nil
			}
			yv, err := yf(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			if yv.Kind != interp.KBool {
				return interp.Value{}, rte(pos, "%s of non-logical", op)
			}
			return yv, nil
		}
	case "+", "-", "*", "/", "**":
		// Integer-integer fast paths (bit-identical to NumericBinop's int
		// branch) keep the hottest arithmetic off the generic dispatcher;
		// anything else — mixed kinds, division by zero, ** — falls back.
		var fast func(a, b int64) (int64, bool)
		switch op {
		case "+":
			fast = func(a, b int64) (int64, bool) { return a + b, true }
		case "-":
			fast = func(a, b int64) (int64, bool) { return a - b, true }
		case "*":
			fast = func(a, b int64) (int64, bool) { return a * b, true }
		case "/":
			fast = func(a, b int64) (int64, bool) {
				if b == 0 {
					return 0, false
				}
				return a / b, true
			}
		}
		return func(x *rctx, fr *frame) (interp.Value, error) {
			xv, err := xf(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			yv, err := yf(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			x.charge(x.costs.Op)
			if fast != nil && xv.Kind == interp.KInt && yv.Kind == interp.KInt {
				if r, ok := fast(xv.I, yv.I); ok {
					return interp.IntVal(r), nil
				}
			}
			v, err2 := interp.NumericBinop(op, xv, yv)
			if err2 != nil {
				return interp.Value{}, rte(pos, "%v", err2)
			}
			return v, nil
		}
	}
	// Comparisons: integer-integer fast path per operator, generic fallback.
	var fast func(a, b int64) (bool, bool)
	switch op {
	case "==":
		fast = func(a, b int64) (bool, bool) { return a == b, true }
	case "/=":
		fast = func(a, b int64) (bool, bool) { return a != b, true }
	case "<":
		fast = func(a, b int64) (bool, bool) { return a < b, true }
	case "<=":
		fast = func(a, b int64) (bool, bool) { return a <= b, true }
	case ">":
		fast = func(a, b int64) (bool, bool) { return a > b, true }
	case ">=":
		fast = func(a, b int64) (bool, bool) { return a >= b, true }
	}
	return func(x *rctx, fr *frame) (interp.Value, error) {
		xv, err := xf(x, fr)
		if err != nil {
			return interp.Value{}, err
		}
		yv, err := yf(x, fr)
		if err != nil {
			return interp.Value{}, err
		}
		x.charge(x.costs.Op)
		if fast != nil && xv.Kind == interp.KInt && yv.Kind == interp.KInt {
			if r, ok := fast(xv.I, yv.I); ok {
				return interp.BoolVal(r), nil
			}
		}
		v, err2 := interp.Compare(op, xv, yv)
		if err2 != nil {
			return interp.Value{}, rte(pos, "%v", err2)
		}
		return v, nil
	}
}

// ref compiles name(args): an array element load when the frame holds an
// array under the name, else the intrinsic path — the same runtime
// precedence the tree-walker's evalRef applies. Rank-1/2/3 loads use the
// fixed-rank index forms (no subscript slice) and mod gets an
// integer-integer fast path; everything else falls back to the generic
// closures, all bit-identical in charges and results.
func (c *comp) ref(e *ftn.Ref) exprFn {
	arrOf := c.arrayOf(e.Name)
	args := make([]exprFn, len(e.Args))
	for i, a := range e.Args {
		args[i] = c.expr(a)
	}
	pos := e.Pos()
	name := e.Name
	isWtime := name == "mpi_wtime"
	isIntr := interp.IsIntrinsic(name) && !isWtime

	// The non-array branch: intrinsics and unknown names.
	intr := func(x *rctx, fr *frame) (interp.Value, error) {
		vals := make([]interp.Value, len(args))
		for i, f := range args {
			v, err := f(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			vals[i] = v
		}
		x.charge(x.costs.Op)
		if isWtime {
			return interp.RealVal(x.rank.Now().Seconds()), nil
		}
		if isIntr {
			v, err := interp.EvalIntrinsic(name, vals)
			if err != nil {
				return interp.Value{}, rte(pos, "%v", err)
			}
			return v, nil
		}
		return interp.Value{}, rte(pos, "unknown array or intrinsic %q", name)
	}
	if isIntr && name == "mod" && len(args) == 2 {
		a0, a1 := args[0], args[1]
		intr = func(x *rctx, fr *frame) (interp.Value, error) {
			v0, err := a0(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			v1, err := a1(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			x.charge(x.costs.Op)
			if v0.Kind == interp.KInt && v1.Kind == interp.KInt {
				if v1.I == 0 {
					return interp.Value{}, rte(pos, "mod by zero")
				}
				return interp.IntVal(v0.I % v1.I), nil
			}
			v, err := interp.EvalIntrinsic(name, []interp.Value{v0, v1})
			if err != nil {
				return interp.Value{}, rte(pos, "%v", err)
			}
			return v, nil
		}
	}
	if c.sym(name).aslot < 0 {
		// The name can never hold an array in any frame of this unit.
		return intr
	}

	switch len(args) {
	case 1:
		a0 := args[0]
		return func(x *rctx, fr *frame) (interp.Value, error) {
			a := arrOf(fr)
			if a == nil {
				return intr(x, fr)
			}
			v0, err := a0(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			x.charge(x.costs.Load)
			off, err := a.Idx1(v0.AsInt())
			if err != nil {
				return interp.Value{}, rte(pos, "%v", err)
			}
			return a.RawGet(off), nil
		}
	case 2:
		a0, a1 := args[0], args[1]
		return func(x *rctx, fr *frame) (interp.Value, error) {
			a := arrOf(fr)
			if a == nil {
				return intr(x, fr)
			}
			v0, err := a0(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			v1, err := a1(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			x.charge(x.costs.Load)
			off, err := a.Idx2(v0.AsInt(), v1.AsInt())
			if err != nil {
				return interp.Value{}, rte(pos, "%v", err)
			}
			return a.RawGet(off), nil
		}
	case 3:
		a0, a1, a2 := args[0], args[1], args[2]
		return func(x *rctx, fr *frame) (interp.Value, error) {
			a := arrOf(fr)
			if a == nil {
				return intr(x, fr)
			}
			v0, err := a0(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			v1, err := a1(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			v2, err := a2(x, fr)
			if err != nil {
				return interp.Value{}, err
			}
			x.charge(x.costs.Load)
			off, err := a.Idx3(v0.AsInt(), v1.AsInt(), v2.AsInt())
			if err != nil {
				return interp.Value{}, rte(pos, "%v", err)
			}
			return a.RawGet(off), nil
		}
	}
	return func(x *rctx, fr *frame) (interp.Value, error) {
		a := arrOf(fr)
		if a == nil {
			return intr(x, fr)
		}
		subs, err := evalInts(x, fr, args)
		if err != nil {
			return interp.Value{}, err
		}
		x.charge(x.costs.Load)
		v, err := a.Get(subs)
		if err != nil {
			return interp.Value{}, rte(pos, "%v", err)
		}
		return v, nil
	}
}

// evalInts evaluates subscript expressions to int64 (evalSubs semantics).
func evalInts(x *rctx, fr *frame, fns []exprFn) ([]int64, error) {
	subs := make([]int64, len(fns))
	for i, f := range fns {
		v, err := f(x, fr)
		if err != nil {
			return nil, err
		}
		subs[i] = v.AsInt()
	}
	return subs, nil
}
