package interp

import (
	"fmt"
	"math"

	"repro/internal/ftn"
)

// evalExpr evaluates an expression in fr.
func (m *machine) evalExpr(fr *frame, e ftn.Expr) (Value, error) {
	switch e := e.(type) {
	case *ftn.IntLit:
		return IntVal(e.Value), nil
	case *ftn.RealLit:
		return RealVal(e.Value), nil
	case *ftn.StrLit:
		return StrVal(e.Value), nil
	case *ftn.BoolLit:
		return BoolVal(e.Value), nil
	case *ftn.Ident:
		return m.evalIdent(fr, e)
	case *ftn.Unary:
		x, err := m.evalExpr(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		m.charge(chOp)
		switch e.Op {
		case "-":
			if x.Kind == KInt {
				return IntVal(-x.I), nil
			}
			return RealVal(-x.AsReal()), nil
		case "+":
			return x, nil
		case ".not.":
			if x.Kind != KBool {
				return Value{}, rte(e.Pos(), ".not. of non-logical")
			}
			return BoolVal(!x.B()), nil
		}
		return Value{}, rte(e.Pos(), "bad unary operator %q", e.Op)
	case *ftn.Binary:
		return m.evalBinary(fr, e)
	case *ftn.Ref:
		return m.evalRef(fr, e)
	}
	return Value{}, rte(e.Pos(), "unsupported expression %T", e)
}

func (m *machine) evalIdent(fr *frame, e *ftn.Ident) (Value, error) {
	b := &fr.b[e.Slot]
	if b.isConst {
		return b.konst, nil
	}
	if b.scal != nil {
		return *b.scal, nil
	}
	if ni := &fr.syms.info[e.Slot]; ni.isMPI {
		return IntVal(ni.mpi), nil
	}
	if b.arr != nil {
		// Bare array name in an expression context is not a value; callers
		// that accept whole arrays (MPI buffers, procedure args) intercept
		// before evaluating. Reaching here is an error.
		return Value{}, rte(e.Pos(), "whole-array reference %s in scalar context", e.Name)
	}
	if fr.implicitNone() {
		return Value{}, rte(e.Pos(), "undeclared name %s", e.Name)
	}
	// Implicit typing: reading an undefined variable yields its zero.
	p, err := m.lookupScalar(fr, e.Slot, e.Pos())
	if err != nil {
		return Value{}, err
	}
	return *p, nil
}

func (m *machine) evalBinary(fr *frame, e *ftn.Binary) (Value, error) {
	// Short-circuit logical operators (Fortran does not guarantee
	// evaluation order, so short-circuiting is a valid strategy).
	if e.Op == ".and." || e.Op == ".or." {
		x, err := m.evalExpr(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		if x.Kind != KBool {
			return Value{}, rte(e.Pos(), "%s of non-logical", e.Op)
		}
		m.charge(chOp)
		if e.Op == ".and." && !x.B() {
			return BoolVal(false), nil
		}
		if e.Op == ".or." && x.B() {
			return BoolVal(true), nil
		}
		y, err := m.evalExpr(fr, e.Y)
		if err != nil {
			return Value{}, err
		}
		if y.Kind != KBool {
			return Value{}, rte(e.Pos(), "%s of non-logical", e.Op)
		}
		return y, nil
	}
	x, err := m.evalExpr(fr, e.X)
	if err != nil {
		return Value{}, err
	}
	y, err := m.evalExpr(fr, e.Y)
	if err != nil {
		return Value{}, err
	}
	m.charge(chOp)
	switch e.Op {
	case "+", "-", "*", "/", "**":
		v, err2 := numericBinop(e.Op, x, y)
		if err2 != nil {
			return Value{}, rte(e.Pos(), "%v", err2)
		}
		return v, nil
	default:
		v, err2 := compare(e.Op, x, y)
		if err2 != nil {
			return Value{}, rte(e.Pos(), "%v", err2)
		}
		return v, nil
	}
}

// evalRef evaluates name(args): array element load or intrinsic call.
func (m *machine) evalRef(fr *frame, e *ftn.Ref) (Value, error) {
	if a := fr.b[e.Slot].arr; a != nil {
		var buf [3]int64
		subs := subsFor(&buf, len(e.Args))
		if err := m.evalSubs(fr, e.Args, subs); err != nil {
			return Value{}, err
		}
		m.charge(chLoad)
		v, err := a.Get(subs)
		if err != nil {
			return Value{}, rte(e.Pos(), "%v", err)
		}
		return v, nil
	}
	return m.evalIntrinsic(fr, e)
}

// evalIntrinsic dispatches the supported intrinsic functions.
func (m *machine) evalIntrinsic(fr *frame, e *ftn.Ref) (Value, error) {
	// Up to four arguments (every intrinsic but a long min/max) live in a
	// fixed array on the stack, not a heap slice per call.
	var buf [4]Value
	args := buf[:]
	if len(e.Args) <= len(buf) {
		args = args[:len(e.Args)]
	} else {
		args = make([]Value, len(e.Args))
	}
	for i, a := range e.Args {
		v, err := m.evalExpr(fr, a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	m.charge(chOp)
	if e.Name == "mpi_wtime" {
		if m.trace != nil {
			m.trace.spoiled = true // the clock is the machine's
		}
		return RealVal(m.rank.Now().Seconds()), nil
	}
	v, err := EvalIntrinsic(e.Name, args)
	if err != nil {
		return Value{}, rte(e.Pos(), "%v", err)
	}
	return v, nil
}

// IsIntrinsic reports whether name is a supported intrinsic function
// (mpi_wtime included). Compiled engines use it to classify references at
// compile time the way evalRef classifies them at run time.
func IsIntrinsic(name string) bool {
	switch name {
	case "mod", "min", "max", "abs", "int", "real", "dble", "float", "nint",
		"sqrt", "exp", "log", "sin", "cos", "iand", "ior", "ieor", "ishft",
		"mpi_wtime":
		return true
	}
	return false
}

// EvalIntrinsic applies the named intrinsic to already-evaluated arguments.
// It is the single definition of intrinsic semantics, shared by the
// tree-walking interpreter and the compiled engine. mpi_wtime is excluded
// (it reads the rank clock, which lives with the caller).
func EvalIntrinsic(name string, args []Value) (Value, error) {
	bad := func() (Value, error) {
		return Value{}, fmt.Errorf("bad arguments to intrinsic %s", name)
	}
	switch name {
	case "mod":
		if len(args) != 2 {
			return bad()
		}
		if args[0].Kind == KInt && args[1].Kind == KInt {
			if args[1].I == 0 {
				return Value{}, fmt.Errorf("mod by zero")
			}
			return IntVal(args[0].I % args[1].I), nil
		}
		return RealVal(math.Mod(args[0].AsReal(), args[1].AsReal())), nil
	case "min":
		if len(args) < 1 {
			return bad()
		}
		out := args[0]
		for _, a := range args[1:] {
			if a.Kind == KInt && out.Kind == KInt {
				if a.I < out.I {
					out = a
				}
			} else if a.AsReal() < out.AsReal() {
				out = a
			}
		}
		return out, nil
	case "max":
		if len(args) < 1 {
			return bad()
		}
		out := args[0]
		for _, a := range args[1:] {
			if a.Kind == KInt && out.Kind == KInt {
				if a.I > out.I {
					out = a
				}
			} else if a.AsReal() > out.AsReal() {
				out = a
			}
		}
		return out, nil
	case "abs":
		if len(args) != 1 {
			return bad()
		}
		if args[0].Kind == KInt {
			if args[0].I < 0 {
				return IntVal(-args[0].I), nil
			}
			return args[0], nil
		}
		return RealVal(math.Abs(args[0].AsReal())), nil
	case "int":
		if len(args) != 1 {
			return bad()
		}
		return IntVal(args[0].AsInt()), nil
	case "real", "dble", "float":
		if len(args) != 1 {
			return bad()
		}
		return RealVal(args[0].AsReal()), nil
	case "nint":
		if len(args) != 1 {
			return bad()
		}
		return IntVal(int64(math.Round(args[0].AsReal()))), nil
	case "sqrt":
		if len(args) != 1 {
			return bad()
		}
		return RealVal(math.Sqrt(args[0].AsReal())), nil
	case "exp":
		if len(args) != 1 {
			return bad()
		}
		return RealVal(math.Exp(args[0].AsReal())), nil
	case "log":
		if len(args) != 1 {
			return bad()
		}
		return RealVal(math.Log(args[0].AsReal())), nil
	case "sin":
		if len(args) != 1 {
			return bad()
		}
		return RealVal(math.Sin(args[0].AsReal())), nil
	case "cos":
		if len(args) != 1 {
			return bad()
		}
		return RealVal(math.Cos(args[0].AsReal())), nil
	case "iand":
		if len(args) != 2 {
			return bad()
		}
		return IntVal(args[0].AsInt() & args[1].AsInt()), nil
	case "ior":
		if len(args) != 2 {
			return bad()
		}
		return IntVal(args[0].AsInt() | args[1].AsInt()), nil
	case "ieor":
		if len(args) != 2 {
			return bad()
		}
		return IntVal(args[0].AsInt() ^ args[1].AsInt()), nil
	case "ishft":
		if len(args) != 2 {
			return bad()
		}
		sh := args[1].AsInt()
		if sh >= 0 {
			return IntVal(args[0].AsInt() << uint(sh)), nil
		}
		return IntVal(args[0].AsInt() >> uint(-sh)), nil
	}
	return Value{}, fmt.Errorf("unknown array or intrinsic %q", name)
}
