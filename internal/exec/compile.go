package exec

import (
	"repro/internal/ftn"
	"repro/internal/interp"
)

// sym is one name's compile-time resolution within a unit. A name can own
// up to three slots — named constant, scalar, array — because Fortran's
// loose association rules let the same name play several roles (a dummy
// declared scalar can still receive an array from the caller, a name
// shadowing an MPI constant becomes a scalar on first store). Slots that a
// name can never use stay -1 and their runtime checks are compiled away.
type sym struct {
	name  string
	cslot int // named-constant slot (-1 when none)
	sslot int // scalar slot (-1 when none)
	aslot int // array slot (-1 when none)
	isMPI bool
	mpi   int64        // MPI named-constant value when isMPI
	zero  interp.Value // implicit-typing zero for on-demand creation
}

// comp compiles one unit.
type comp struct {
	prog         *Program
	u            *ftn.Unit
	implicitNone bool
	syms         map[string]*sym
	order        []*sym // first-encounter order, for deterministic slots
	nscal, narr  int
	nconst       int
}

// compileUnit lowers one program unit. It never fails: statements the
// engine cannot lower (and names that are illegal under implicit none)
// compile to closures returning the same runtime errors the tree-walker
// raises, so a program only faults if the faulty statement executes.
func compileUnit(prog *Program, u *ftn.Unit) *unit {
	c := &comp{prog: prog, u: u, implicitNone: u.ImplicitNone, syms: map[string]*sym{}}

	// Pass A: declared names claim their slots first.
	for _, d := range u.Decls {
		for _, e := range d.Entities {
			s := c.sym(e.Name)
			if d.Parameter {
				// A parameter without an initializer never enters the
				// constant table (the tree-walker skips it in pass 1), so
				// the name keeps behaving like an implicit scalar.
				if e.Init != nil && s.cslot < 0 {
					s.cslot = c.nconst
					c.nconst++
				}
				continue
			}
			if len(d.DimsOf(e)) > 0 {
				c.arrSlot(s)
			} else {
				c.scalSlot(s)
			}
		}
	}
	// Pass B: every dummy gets both a scalar and an array slot — the
	// caller decides which side of the binding it fills.
	for _, p := range u.Params {
		s := c.sym(p)
		c.scalSlot(s)
		c.arrSlot(s)
	}
	// Pass C: scan declarations and body for the remaining names (implicit
	// scalars, MPI constants) so every Ident resolves to a slot.
	c.scanDecls()
	for _, st := range u.Body {
		c.scanStmt(st)
	}

	cu := &unit{
		name:   u.Name,
		params: append([]string(nil), u.Params...),
	}
	isParam := map[string]bool{}
	for _, p := range u.Params {
		s := c.syms[p]
		cu.paramScal = append(cu.paramScal, s.sslot)
		cu.paramArr = append(cu.paramArr, s.aslot)
		isParam[p] = true
	}

	// Frame setup, in the tree-walker's order: named constants first (they
	// may reference each other in declaration order), then variables and
	// arrays declaration by declaration.
	for _, d := range u.Decls {
		if !d.Parameter {
			continue
		}
		for _, e := range d.Entities {
			if e.Init == nil {
				continue
			}
			s := c.syms[e.Name]
			init := c.expr(e.Init)
			base := d.Type.Base
			cslot := s.cslot
			cu.setup = append(cu.setup, func(x *rctx, fr *frame) error {
				v, err := init(x, fr)
				if err != nil {
					return err
				}
				fr.consts[cslot] = interp.CoerceDecl(base, v)
				fr.constSet[cslot] = true
				return nil
			})
		}
	}
	for _, d := range u.Decls {
		if d.Parameter {
			continue
		}
		kind := interp.KindOf(d.Type.Base)
		for _, e := range d.Entities {
			s := c.syms[e.Name]
			dims := d.DimsOf(e)
			if len(dims) == 0 {
				cu.setup = append(cu.setup, c.scalarDeclStep(s, d.Type.Base, kind, e.Init))
				continue
			}
			cu.setup = append(cu.setup, c.arrayDeclStep(s, kind, dims, d.Pos(), isParam[e.Name]))
		}
	}

	for _, st := range u.Body {
		if fn := c.stmt(st); fn != nil {
			cu.body = append(cu.body, fn)
		}
	}

	cu.nscal, cu.narr, cu.nconst = c.nscal, c.narr, c.nconst
	cu.cm = c
	return cu
}

// scalarDeclStep compiles pass-2 handling of a declared scalar: keep an
// existing binding (dummy), else allocate (and evaluate the initializer).
func (c *comp) scalarDeclStep(s *sym, base ftn.BaseType, kind interp.Kind, init ftn.Expr) stmtFn {
	var initFn exprFn
	if init != nil {
		initFn = c.expr(init)
	}
	sslot := s.sslot
	return func(x *rctx, fr *frame) error {
		if fr.scal[sslot] != nil {
			return nil
		}
		v := interp.ZeroOf(kind)
		if initFn != nil {
			iv, err := initFn(x, fr)
			if err != nil {
				return err
			}
			v = interp.CoerceDecl(base, iv)
		}
		fr.scal[sslot] = &v
		return nil
	}
}

// arrayDeclStep compiles pass-2 handling of a declared array: evaluate the
// bounds in this frame, then view the caller's backing (dummy) or allocate.
// Only a dummy's slot can hold caller backing — for any other name a
// pre-filled slot means an earlier declaration of the same name, which a
// fresh allocation replaces (as the tree-walker's binding is overwritten).
func (c *comp) arrayDeclStep(s *sym, kind interp.Kind, dims []ftn.Dim, pos ftn.Pos, isDummy bool) stmtFn {
	type dimFns struct {
		lo, hi  exprFn
		assumed bool
	}
	fns := make([]dimFns, len(dims))
	for i, d := range dims {
		if d.Lo != nil {
			fns[i].lo = c.expr(d.Lo)
		}
		if d.Hi == nil {
			fns[i].assumed = true
		} else {
			fns[i].hi = c.expr(d.Hi)
		}
	}
	name := s.name
	aslot := s.aslot
	return func(x *rctx, fr *frame) error {
		bounds := make([]interp.DimBound, len(fns))
		for i, f := range fns {
			lo := int64(1)
			if f.lo != nil {
				v, err := f.lo(x, fr)
				if err != nil {
					return err
				}
				lo = v.AsInt()
			}
			if f.assumed {
				bounds[i] = interp.DimBound{Lo: lo, Assumed: true}
				continue
			}
			hv, err := f.hi(x, fr)
			if err != nil {
				return err
			}
			bounds[i] = interp.DimBound{Lo: lo, Hi: hv.AsInt()}
		}
		if backing := fr.arr[aslot]; isDummy && backing != nil {
			view, err := interp.View(name, backing, 0, bounds)
			if err != nil {
				return rte(pos, "%v", err)
			}
			fr.arr[aslot] = view
			return nil
		}
		a, err := interp.NewArray(name, kind, bounds)
		if err != nil {
			return rte(pos, "%v", err)
		}
		fr.arr[aslot] = a
		return nil
	}
}

// sym finds or creates the symbol for name.
func (c *comp) sym(name string) *sym {
	if s, ok := c.syms[name]; ok {
		return s
	}
	s := &sym{name: name, cslot: -1, sslot: -1, aslot: -1, zero: implicitZero(name)}
	if v, ok := interp.MPIConstant(name); ok {
		s.isMPI = true
		s.mpi = v
	}
	c.syms[name] = s
	c.order = append(c.order, s)
	return s
}

func (c *comp) scalSlot(s *sym) {
	if s.sslot < 0 {
		s.sslot = c.nscal
		c.nscal++
	}
}

func (c *comp) arrSlot(s *sym) {
	if s.aslot < 0 {
		s.aslot = c.narr
		c.narr++
	}
}

// implicitZero is the implicit-typing zero: i-n integer, else real.
func implicitZero(name string) interp.Value {
	if name != "" && name[0] >= 'i' && name[0] <= 'n' {
		return interp.IntVal(0)
	}
	return interp.RealVal(0)
}

// --- name scanning: give every Ident a slot before compiling closures ---

func (c *comp) scanDecls() {
	for _, d := range c.u.Decls {
		for _, e := range d.Entities {
			if e.Init != nil {
				c.scanExpr(e.Init)
			}
			for _, dim := range d.DimsOf(e) {
				if dim.Lo != nil {
					c.scanExpr(dim.Lo)
				}
				if dim.Hi != nil {
					c.scanExpr(dim.Hi)
				}
			}
		}
	}
}

func (c *comp) scanStmt(s ftn.Stmt) {
	switch s := s.(type) {
	case *ftn.AssignStmt:
		c.scanExpr(s.LHS)
		c.scanExpr(s.RHS)
	case *ftn.DoStmt:
		c.touchScalar(s.Var)
		c.scanExpr(s.Lo)
		c.scanExpr(s.Hi)
		if s.Step != nil {
			c.scanExpr(s.Step)
		}
		for _, b := range s.Body {
			c.scanStmt(b)
		}
	case *ftn.IfStmt:
		c.scanExpr(s.Cond)
		for _, b := range s.Then {
			c.scanStmt(b)
		}
		for _, b := range s.Else {
			c.scanStmt(b)
		}
	case *ftn.CallStmt:
		for _, a := range s.Args {
			c.scanExpr(a)
		}
	case *ftn.PrintStmt:
		for _, a := range s.Args {
			c.scanExpr(a)
		}
	}
}

func (c *comp) scanExpr(e ftn.Expr) {
	switch e := e.(type) {
	case *ftn.Ident:
		c.touchScalar(e.Name)
	case *ftn.Ref:
		// The name itself needs no new slot (arrays are declared, unknown
		// names fall to the intrinsic path), but a dummy already carrying
		// slots resolves through them.
		for _, a := range e.Args {
			c.scanExpr(a)
		}
	case *ftn.Unary:
		c.scanExpr(e.X)
	case *ftn.Binary:
		c.scanExpr(e.X)
		c.scanExpr(e.Y)
	}
}

// touchScalar ensures a scalar slot exists for a name used in scalar
// position, unless implicit none forbids creating it (uses then compile to
// the tree-walker's runtime errors). Named constants get one too: a
// forward reference during frame setup reads the name before its
// initializer runs, where the tree-walker falls back to an implicit
// scalar.
func (c *comp) touchScalar(name string) {
	s := c.sym(name)
	if c.implicitNone && s.cslot < 0 && s.sslot < 0 && s.aslot < 0 {
		return // undeclared under implicit none: error closures, no slot
	}
	c.scalSlot(s)
}

// --- scalar access closures (evalIdent / lookupScalar semantics) ---

// identRead compiles reading name as a scalar expression, following the
// tree-walker's resolution order: named constants, scalars, MPI constants,
// whole-array error, implicit-none error, implicit creation.
func (c *comp) identRead(e *ftn.Ident) exprFn {
	s := c.sym(e.Name)
	pos := e.Pos()
	cslot, sslot, aslot := s.cslot, s.sslot, s.aslot
	isMPI, mpiVal, zero := s.isMPI, s.mpi, s.zero
	implicitNone := c.implicitNone
	name := s.name
	return func(x *rctx, fr *frame) (interp.Value, error) {
		if cslot >= 0 && fr.constSet[cslot] {
			// A constant is visible only once its initializer ran; an
			// unset slot (a forward reference during frame setup) falls
			// through to the tree-walker's implicit-typing path.
			return fr.consts[cslot], nil
		}
		if sslot >= 0 {
			if p := fr.scal[sslot]; p != nil {
				return *p, nil
			}
		}
		if isMPI {
			return interp.IntVal(mpiVal), nil
		}
		if aslot >= 0 {
			if fr.arr[aslot] != nil {
				return interp.Value{}, rte(pos, "whole-array reference %s in scalar context", name)
			}
		}
		if implicitNone {
			return interp.Value{}, rte(pos, "undeclared name %s", name)
		}
		p := new(interp.Value)
		*p = zero
		fr.scal[sslot] = p
		return *p, nil
	}
}

// scalarPtr compiles lookupScalar: find or create the scalar cell for a
// store (or a by-reference argument binding).
func (c *comp) scalarPtr(name string, pos ftn.Pos) func(x *rctx, fr *frame) (*interp.Value, error) {
	s := c.sym(name)
	sslot, cslot := s.sslot, s.cslot
	zero := s.zero
	implicitNone := c.implicitNone
	return func(x *rctx, fr *frame) (*interp.Value, error) {
		if sslot >= 0 {
			if p := fr.scal[sslot]; p != nil {
				return p, nil
			}
		}
		if cslot >= 0 {
			return nil, rte(pos, "cannot assign to named constant %s", name)
		}
		if implicitNone {
			return nil, rte(pos, "undeclared variable %s under implicit none", name)
		}
		if sslot < 0 {
			// Unreachable in practice (scanning allocated a slot for every
			// scalar use outside implicit none), kept as a hard error.
			return nil, rte(pos, "undeclared variable %s", name)
		}
		p := new(interp.Value)
		*p = zero
		fr.scal[sslot] = p
		return p, nil
	}
}

// arrayOf compiles the fr.arr lookup for a name; the returned func yields
// nil when the name holds no array in this frame.
func (c *comp) arrayOf(name string) func(fr *frame) *interp.Array {
	s := c.sym(name)
	aslot := s.aslot
	if aslot < 0 {
		return func(fr *frame) *interp.Array { return nil }
	}
	return func(fr *frame) *interp.Array { return fr.arr[aslot] }
}

// errStmt compiles to a statement that always fails with the given message.
func errStmt(pos ftn.Pos, format string, args ...interface{}) stmtFn {
	err := rte(pos, format, args...)
	return func(x *rctx, fr *frame) error { return err }
}
