package exec

import (
	"repro/internal/ftn"
	"repro/internal/interp"
)

// mpiArg holds, for one actual argument of an MPI call site, the accessors
// its role in the routine's signature asks for. The binding itself — arity,
// evaluation order, validation, request handles, ierr — is interp.MPI, the
// same code the tree-walker runs; this file only answers "evaluate / look
// up as an array / store into argument i" from pre-compiled closures.
type mpiArg struct {
	val   exprFn                        // ArgValue
	store storeFn                       // ArgStore
	arr   func(fr *frame) *interp.Array // ArgBuffer over an Ident or a Ref
	subs  []exprFn                      // ... a Ref's subscripts
}

// call compiles a CALL statement: an MPI routine (resolved here, at compile
// time) binds to interp.MPI over the site's mpiArgs, any other name
// dispatches to a compiled user subroutine.
func (c *comp) call(s *ftn.CallStmt) stmtFn {
	r := interp.LookupMPI(s.Name)
	if r == nil {
		return c.userCall(s)
	}
	var args []mpiArg // stays empty when the call is off r's signature
	if len(s.Args) == len(r.Roles) {
		args = make([]mpiArg, len(s.Args))
	}
	for i := range args {
		a, role := &args[i], r.Roles[i]
		if role&interp.ArgValue != 0 {
			a.val = c.expr(s.Args[i])
		}
		if role&interp.ArgStore != 0 {
			a.store = c.store(s.Args[i])
		}
		if role&interp.ArgBuffer != 0 {
			switch e := s.Args[i].(type) {
			case *ftn.Ident:
				a.arr = c.arrayOf(e.Name)
			case *ftn.Ref:
				a.arr = c.arrayOf(e.Name)
				a.subs = make([]exprFn, len(e.Args))
				for j, sub := range e.Args {
					a.subs[j] = c.expr(sub)
				}
			}
		}
	}
	return func(x *rctx, fr *frame) error {
		// MPI calls do not nest, so the rctx carries the one site being
		// executed and serves as its interp.MPIArgs without allocating.
		x.args, x.argFr = args, fr
		return x.mpi.Call(r, s, x)
	}
}

// Value implements interp.MPIArgs.
func (x *rctx) Value(i int) (interp.Value, error) { return x.args[i].val(x, x.argFr) }

// Store implements interp.MPIArgs.
func (x *rctx) Store(i int, v interp.Value) error { return x.args[i].store(x, x.argFr, v) }

// Buffer implements interp.MPIArgs.
func (x *rctx) Buffer(i int) (*interp.Array, []int64, error) {
	a := &x.args[i]
	arr := a.arr(x.argFr)
	if arr == nil || a.subs == nil {
		return arr, nil, nil
	}
	// The binding consumes the subscripts before it asks for anything else,
	// so one scratch slice per rank serves every call.
	x.subs = x.subs[:0]
	for _, f := range a.subs {
		v, err := f(x, x.argFr)
		if err != nil {
			return nil, nil, err
		}
		x.subs = append(x.subs, v.AsInt())
	}
	return arr, x.subs, nil
}

// binding is one actual argument's contribution to a callee frame: a
// scalar cell alias or an array (view).
type binding struct {
	scal *interp.Value
	arr  *interp.Array
}

// argBinder evaluates one actual argument in the caller's frame. dummy is
// the callee's dummy name (only used to label sequence-association views).
type argBinder func(x *rctx, fr *frame, dummy string) (binding, error)

// userCall compiles a call to a user subroutine with Fortran reference
// semantics (callUser). The target unit is resolved at run time so a call
// to a subroutine defined later in the file still binds.
func (c *comp) userCall(s *ftn.CallStmt) stmtFn {
	binders := make([]argBinder, len(s.Args))
	for i, a := range s.Args {
		binders[i] = c.argBinder(a)
	}
	pos, name := s.Pos(), s.Name
	return func(x *rctx, fr *frame) error {
		sub := x.prog.units[name]
		if sub == nil {
			return rte(pos, "unknown subroutine %s", name)
		}
		if len(binders) != len(sub.params) {
			return rte(pos, "call to %s with %d args, wants %d", name, len(binders), len(sub.params))
		}
		x.charge(x.costs.CallOver)
		nfr := sub.newFrame()
		for i, b := range binders {
			bd, err := b(x, fr, sub.params[i])
			if err != nil {
				return err
			}
			if bd.scal != nil {
				nfr.scal[sub.paramScal[i]] = bd.scal
			}
			if bd.arr != nil {
				nfr.arr[sub.paramArr[i]] = bd.arr
			}
		}
		for _, st := range sub.setup {
			if err := st(x, nfr); err != nil {
				return err
			}
		}
		err := runStmts(x, nfr, sub.body)
		if err == errReturn {
			err = nil
		}
		return err
	}
}

// argBinder compiles one actual argument's binding rule.
func (c *comp) argBinder(a ftn.Expr) argBinder {
	if id, ok := a.(*ftn.Ident); ok {
		arrOf := c.arrayOf(id.Name)
		ptr := c.scalarPtr(id.Name, id.Pos())
		return func(x *rctx, fr *frame, dummy string) (binding, error) {
			if arr := arrOf(fr); arr != nil {
				return binding{arr: arr}, nil
			}
			p, err := ptr(x, fr)
			return binding{scal: p}, err // alias: writes are visible to the caller
		}
	}
	full := c.expr(a)
	byValue := func(x *rctx, fr *frame, dummy string) (binding, error) {
		v, err := full(x, fr)
		return binding{scal: &v}, err // a temporary the callee may write
	}
	ref, ok := a.(*ftn.Ref)
	if !ok {
		return byValue
	}
	arrOf := c.arrayOf(ref.Name)
	subs := make([]exprFn, len(ref.Args))
	for i, e := range ref.Args {
		subs[i] = c.expr(e)
	}
	pos := ref.Pos()
	return func(x *rctx, fr *frame, dummy string) (binding, error) {
		arr := arrOf(fr)
		if arr == nil {
			return byValue(x, fr, dummy) // the name is not an array here
		}
		ix, err := evalInts(x, fr, subs)
		if err != nil {
			return binding{}, err
		}
		off, err := arr.Linear(ix)
		if err != nil {
			return binding{}, err
		}
		// Sequence association: the callee's dummy views the caller's
		// storage from this element on.
		view, err := interp.View(dummy, arr, off, []interp.DimBound{{Lo: 1, Assumed: true}})
		if err != nil {
			return binding{}, rte(pos, "%v", err)
		}
		return binding{arr: view}, nil
	}
}
