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

// comp is one unit's symbol table: every name the unit mentions, resolved
// to its slots once, before anything is lowered.
type comp struct {
	u            *ftn.Unit
	implicitNone bool
	syms         map[string]*sym
	order        []*sym // first-encounter order, for deterministic slots
	nscal, narr  int
	nconst       int
	// charWhy and charAt name the first place the unit can create a
	// character value ("" when it cannot): such a program is not lowered.
	charWhy string
	charAt  ftn.Pos
}

// compileUnit resolves one program unit's names. It never fails: names that
// are illegal under implicit none get no slot, and their uses lower to the
// runtime errors the tree-walker raises, so a program only faults if the
// faulty statement executes.
func compileUnit(u *ftn.Unit) *unit {
	c := &comp{u: u, implicitNone: u.ImplicitNone, syms: map[string]*sym{}}

	// Pass A: declared names claim their slots first.
	for _, d := range u.Decls {
		if d.Type.Base == ftn.TCharacter {
			c.noteChar(d.Pos(), "character declaration")
		}
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
		nscal:  c.nscal, narr: c.narr, nconst: c.nconst,
		cm: c,
	}
	for _, p := range u.Params {
		s := c.syms[p]
		cu.paramScal = append(cu.paramScal, s.sslot)
		cu.paramArr = append(cu.paramArr, s.aslot)
	}
	return cu
}

// noteChar records the first source of a character value.
func (c *comp) noteChar(pos ftn.Pos, why string) {
	if c.charWhy == "" {
		c.charWhy, c.charAt = why, pos
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

// --- name scanning: give every Ident a slot before anything is lowered ---

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
			// A literal standing directly as a PRINT item never enters a
			// register (bPrint holds it), so it is not a character value
			// in the sense of noteChar.
			if _, lit := a.(*ftn.StrLit); !lit {
				c.scanExpr(a)
			}
		}
	}
}

func (c *comp) scanExpr(e ftn.Expr) {
	switch e := e.(type) {
	case *ftn.StrLit:
		c.noteChar(e.Pos(), "character literal")
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
// position, unless implicit none forbids creating it (uses then lower to
// the tree-walker's runtime errors). Named constants get one too: a
// forward reference during frame setup reads the name before its
// initializer runs, where the tree-walker falls back to an implicit
// scalar.
func (c *comp) touchScalar(name string) {
	s := c.sym(name)
	if c.implicitNone && s.cslot < 0 && s.sslot < 0 && s.aslot < 0 {
		return // undeclared under implicit none: no slot, every use is an error
	}
	c.scalSlot(s)
}
