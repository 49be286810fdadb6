package interp

import (
	"errors"
	"fmt"

	"repro/internal/ftn"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// CostModel maps interpreted operations to virtual CPU time. The defaults
// approximate a mid-2000s cluster node (a few hundred MFLOP/s with loop
// overheads), which is the right scale for the paper's era.
type CostModel struct {
	Op       netsim.Time // per arithmetic/relational/logical operation
	Assign   netsim.Time // per scalar assignment
	Store    netsim.Time // per array element store
	Load     netsim.Time // per array element load
	LoopIter netsim.Time // per loop iteration overhead
	CallOver netsim.Time // per procedure call overhead
}

// DefaultCosts returns the standard cost model.
func DefaultCosts() CostModel {
	return CostModel{
		Op:       2 * netsim.Nanosecond,
		Assign:   1 * netsim.Nanosecond,
		Store:    4 * netsim.Nanosecond,
		Load:     2 * netsim.Nanosecond,
		LoopIter: 2 * netsim.Nanosecond,
		CallOver: 20 * netsim.Nanosecond,
	}
}

// Control-flow sentinels.
var (
	errReturn = errors.New("return")
	errStop   = errors.New("stop")
	errExit   = errors.New("exit")
	errCycle  = errors.New("cycle")
)

// runtimeError wraps an error with a source position.
type runtimeError struct {
	Pos ftn.Pos
	Err error
}

// Error implements the error interface.
func (e *runtimeError) Error() string { return fmt.Sprintf("%s: %v", e.Pos, e.Err) }

func rte(pos ftn.Pos, format string, args ...interface{}) error {
	return &runtimeError{Pos: pos, Err: fmt.Errorf(format, args...)}
}

// frame is one procedure activation: the unit's bindings by slot.
type frame struct {
	syms *unitSyms
	b    []binding
}

func (fr *frame) implicitNone() bool { return fr.syms.unit.ImplicitNone }

// name spells slot's name for a diagnostic.
func (fr *frame) name(slot int) string { return fr.syms.info[slot].name }

// binding is what one name holds in one activation: up to a named constant,
// a scalar cell and an array at once, as loose argument association allows
// (a dummy declared scalar can receive an array; a name read before its
// PARAMETER initializer ran is an implicit scalar and a constant). An
// undeclared name's binding stays empty until first touched.
type binding struct {
	scal    *Value // a dummy's cell is the caller's
	arr     *Array
	konst   Value // valid when isConst
	isConst bool
}

// actual is one evaluated actual argument of a user call: the caller's
// scalar cell (or a temporary), or an array view.
type actual struct {
	scal *Value
	arr  *Array
}

// machine executes one rank's program.
type machine struct {
	prog  *Program
	rank  *mpi.Rank
	price [6]netsim.Time // the cost model's prices, by charge kind
	out   []string
	main  *frame
	// trace is mpi.Trace: non-nil in a run that records its skeleton.
	trace *RankTrace
	// mpi is the rank's MPI binding; callFr/callStmt are the call site it
	// is executing (the machine is its own MPIArgs, see mpibind.go).
	mpi      *MPI
	callFr   *frame
	callStmt *ftn.CallStmt
	subs     []int64 // the subscripts of the call's buffer (Buffer)
}

// charge books one charge of kind k (a ChargeCounts index), and counts it
// when the run records.
func (m *machine) charge(k int) {
	if m.trace != nil {
		m.trace.pend[k]++
	}
	m.rank.Compute(m.price[k])
}

// predefined MPI named constants.
var mpiConsts = map[string]int64{
	"mpi_comm_world":       91,
	"mpi_integer":          1,
	"mpi_real":             2,
	"mpi_double_precision": 3,
	"mpi_statuses_ignore":  -909,
	"mpi_status_ignore":    -909,
	"mpi_status_size":      4,
	"mpi_success":          0,
}

// dtypeBytes maps an MPI datatype constant to its Fortran element size.
func dtypeBytes(v int64) (int64, bool) {
	switch v {
	case 1, 2:
		return 4, true
	case 3:
		return 8, true
	}
	return 0, false
}

// MPIConstant resolves a predefined MPI named constant (exported so the
// compiled engine binds against the same table).
func MPIConstant(name string) (int64, bool) {
	v, ok := mpiConsts[name]
	return v, ok
}

// KindOf maps a declared base type to its runtime kind (exported for the
// compiled engine's declaration lowering).
func KindOf(b ftn.BaseType) Kind { return kindOf(b) }

// ZeroOf returns the zero value of a kind (exported).
func ZeroOf(k Kind) Value { return zeroOf(k) }

// CoerceDecl converts an initializer to the declared base type (exported).
func CoerceDecl(b ftn.BaseType, v Value) Value { return coerceDecl(b, v) }

// CoerceStore converts v to the kind of the existing slot value (exported;
// the compiled engine's scalar stores go through the same conversion).
func CoerceStore(old, v Value) Value { return coerceStore(old, v) }

// newFrame builds and initializes an activation of the unit us names. For
// subroutines, args carry the dummy-argument bindings established by the
// caller (scalar aliases and array views), by dummy position.
func (m *machine) newFrame(us *unitSyms, args []actual) (*frame, error) {
	unit := us.unit
	fr := &frame{syms: us, b: make([]binding, len(us.info))}
	for i, a := range args {
		if a.scal != nil {
			fr.b[us.params[i]].scal = a.scal
		}
	}
	// A dummy's array stays out of the frame until its declaration (or the
	// end of setup) binds it, so bounds and initializers cannot see it early.
	dummyArr := func(slot int) *Array {
		for i := len(args) - 1; i >= 0; i-- {
			if us.params[i] == slot && args[i].arr != nil {
				return args[i].arr
			}
		}
		return nil
	}
	// Pass 1: named constants (may reference each other in order).
	for _, d := range unit.Decls {
		if !d.Parameter {
			continue
		}
		for _, e := range d.Entities {
			if e.Init == nil {
				continue
			}
			v, err := m.evalExpr(fr, e.Init)
			if err != nil {
				return nil, err
			}
			b := &fr.b[us.slot[e.Name]]
			b.konst, b.isConst = coerceDecl(d.Type.Base, v), true
		}
	}
	// Pass 2: variables and arrays.
	for _, d := range unit.Decls {
		if d.Parameter {
			continue
		}
		kind := kindOf(d.Type.Base)
		for _, e := range d.Entities {
			slot := us.slot[e.Name]
			b := &fr.b[slot]
			dims := d.DimsOf(e)
			if len(dims) == 0 {
				// Scalar: keep an existing binding (dummy), else allocate.
				if b.scal != nil {
					continue
				}
				v := zeroOf(kind)
				if e.Init != nil {
					iv, err := m.evalExpr(fr, e.Init)
					if err != nil {
						return nil, err
					}
					v = coerceDecl(d.Type.Base, iv)
				}
				b.scal = &v
				continue
			}
			// Array: evaluate bounds in this frame.
			bounds, err := m.evalDims(fr, dims)
			if err != nil {
				return nil, err
			}
			if backing := dummyArr(slot); backing != nil {
				view, err := View(e.Name, backing, 0, bounds)
				if err != nil {
					return nil, rte(d.Pos(), "%v", err)
				}
				b.arr = view
				continue
			}
			a, err := NewArray(e.Name, kind, bounds)
			if err != nil {
				return nil, rte(d.Pos(), "%v", err)
			}
			b.arr = a
		}
	}
	// Dummy arrays without a matching declaration are used as declared by
	// the caller (rare; treat the caller's view as-is).
	for i := range args {
		if b := &fr.b[us.params[i]]; b.arr == nil {
			b.arr = dummyArr(us.params[i])
		}
	}
	return fr, nil
}

func kindOf(b ftn.BaseType) Kind {
	switch b {
	case ftn.TReal, ftn.TDouble:
		return KReal
	case ftn.TLogical:
		return KBool
	case ftn.TCharacter:
		return KStr
	}
	return KInt
}

func zeroOf(k Kind) Value {
	switch k {
	case KReal:
		return RealVal(0)
	case KBool:
		return BoolVal(false)
	case KStr:
		return StrVal("")
	}
	return IntVal(0)
}

func coerceDecl(b ftn.BaseType, v Value) Value {
	switch kindOf(b) {
	case KReal:
		return RealVal(v.AsReal())
	case KInt:
		return IntVal(v.AsInt())
	}
	return v
}

func (m *machine) evalDims(fr *frame, dims []ftn.Dim) ([]DimBound, error) {
	out := make([]DimBound, len(dims))
	for i, d := range dims {
		lo := int64(1)
		if d.Lo != nil {
			v, err := m.evalExpr(fr, d.Lo)
			if err != nil {
				return nil, err
			}
			lo = v.AsInt()
		}
		if d.Hi == nil {
			out[i] = DimBound{Lo: lo, Assumed: true}
			continue
		}
		hi, err := m.evalExpr(fr, d.Hi)
		if err != nil {
			return nil, err
		}
		out[i] = DimBound{Lo: lo, Hi: hi.AsInt()}
	}
	return out, nil
}

// lookupScalar finds or (under implicit typing) creates the scalar cell of
// the name numbered slot.
func (m *machine) lookupScalar(fr *frame, slot int, pos ftn.Pos) (*Value, error) {
	b := &fr.b[slot]
	if b.scal != nil {
		return b.scal, nil
	}
	if b.isConst {
		return nil, rte(pos, "cannot assign to named constant %s", fr.name(slot))
	}
	if fr.implicitNone() {
		return nil, rte(pos, "undeclared variable %s under implicit none", fr.name(slot))
	}
	var v Value
	if name := fr.name(slot); name[0] >= 'i' && name[0] <= 'n' {
		v = IntVal(0)
	} else {
		v = RealVal(0)
	}
	b.scal = &v
	return &v, nil
}

// execStmts runs a statement list.
func (m *machine) execStmts(fr *frame, stmts []ftn.Stmt) error {
	for _, s := range stmts {
		if err := m.execStmt(fr, s); err != nil {
			return err
		}
	}
	return nil
}

func (m *machine) execStmt(fr *frame, s ftn.Stmt) error {
	switch s := s.(type) {
	case *ftn.CommentStmt, *ftn.ContinueStmt:
		return nil
	case *ftn.AssignStmt:
		return m.execAssign(fr, s)
	case *ftn.DoStmt:
		return m.execDo(fr, s)
	case *ftn.IfStmt:
		cond, err := m.evalExpr(fr, s.Cond)
		if err != nil {
			return err
		}
		m.charge(chOp)
		if cond.Kind != KBool {
			return rte(s.Pos(), "IF condition is not logical")
		}
		if cond.B() {
			return m.execStmts(fr, s.Then)
		}
		return m.execStmts(fr, s.Else)
	case *ftn.CallStmt:
		return m.execCall(fr, s)
	case *ftn.PrintStmt:
		vals := make([]Value, len(s.Args))
		for i, a := range s.Args {
			v, err := m.evalExpr(fr, a)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		m.out = append(m.out, formatPrintLine(vals))
		return nil
	case *ftn.ReturnStmt:
		return errReturn
	case *ftn.StopStmt:
		return errStop
	case *ftn.ExitStmt:
		return errExit
	case *ftn.CycleStmt:
		return errCycle
	}
	return rte(s.Pos(), "unsupported statement %T", s)
}

func (m *machine) execAssign(fr *frame, s *ftn.AssignStmt) error {
	v, err := m.evalExpr(fr, s.RHS)
	if err != nil {
		return err
	}
	return m.store(fr, s.LHS, v)
}

// store writes v to an assignable designator.
func (m *machine) store(fr *frame, lhs ftn.Expr, v Value) error {
	switch lhs := lhs.(type) {
	case *ftn.Ident:
		p, err := m.lookupScalar(fr, lhs.Slot, lhs.Pos())
		if err != nil {
			return err
		}
		m.charge(chAssign)
		*p = coerceStore(*p, v)
		return nil
	case *ftn.Ref:
		a := fr.b[lhs.Slot].arr
		if a == nil {
			return rte(lhs.Pos(), "assignment to %s, which is not an array", lhs.Name)
		}
		var buf [3]int64
		subs := subsFor(&buf, len(lhs.Args))
		if err := m.evalSubs(fr, lhs.Args, subs); err != nil {
			return err
		}
		m.charge(chStore)
		if err := a.Set(subs, v); err != nil {
			return rte(lhs.Pos(), "%v", err)
		}
		return nil
	}
	return rte(lhs.Pos(), "bad assignment target %T", lhs)
}

// coerceStore converts v to the kind of the existing slot value.
func coerceStore(old, v Value) Value {
	switch old.Kind {
	case KInt:
		return IntVal(v.AsInt())
	case KReal:
		return RealVal(v.AsReal())
	case KBool:
		if v.Kind == KBool {
			return v
		}
		return BoolVal(v.AsInt() != 0)
	case KStr:
		if v.Kind == KStr {
			return v
		}
	}
	return v
}

// subsFor returns room for n subscripts: buf (the caller's stack array, so
// rank ≤ 3 allocates nothing) or a fresh slice when n exceeds it. Array.Get,
// Set and Linear do not retain the slice.
func subsFor(buf *[3]int64, n int) []int64 {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]int64, n)
}

// evalSubs evaluates a subscript list into subs.
func (m *machine) evalSubs(fr *frame, args []ftn.Expr, subs []int64) error {
	for i, a := range args {
		v, err := m.evalExpr(fr, a)
		if err != nil {
			return err
		}
		subs[i] = v.AsInt()
	}
	return nil
}

func (m *machine) execDo(fr *frame, s *ftn.DoStmt) error {
	loVal, err := m.evalExpr(fr, s.Lo)
	if err != nil {
		return err
	}
	hiVal, err := m.evalExpr(fr, s.Hi)
	if err != nil {
		return err
	}
	step := int64(1)
	if s.Step != nil {
		sv, err := m.evalExpr(fr, s.Step)
		if err != nil {
			return err
		}
		step = sv.AsInt()
		if step == 0 {
			return rte(s.Pos(), "DO step is zero")
		}
	}
	lo, hi := loVal.AsInt(), hiVal.AsInt()
	// Fortran trip count, computed once.
	trips := (hi - lo + step) / step
	if trips < 0 {
		trips = 0
	}
	vp, err := m.lookupScalar(fr, s.Slot, s.Pos())
	if err != nil {
		return err
	}
	v := lo
	for t := int64(0); t < trips; t++ {
		*vp = IntVal(v)
		m.charge(chLoopIter)
		err := m.execStmts(fr, s.Body)
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
	*vp = IntVal(v)
	return nil
}
