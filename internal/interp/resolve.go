package interp

import "repro/internal/ftn"

// nameInfo is what Load knows of one name of a unit before anything runs.
type nameInfo struct {
	name  string
	mpi   int64 // the predefined MPI constant of that name, when isMPI
	isMPI bool
}

// unitSyms is one unit's name table. Load numbers every name the unit
// mentions — declared or not, in any role — from 1 and writes the number on
// each Ident, Ref and DoStmt of the unit, so a frame is a slice indexed by
// slot and no evaluation hashes or compares a name.
type unitSyms struct {
	unit   *ftn.Unit
	info   []nameInfo     // by slot; info[0] is unused (slot 0 = unresolved)
	slot   map[string]int // read only while a frame's declarations are bound
	params []int          // dummy argument i → slot
}

func (us *unitSyms) slotOf(name string) int {
	if s, ok := us.slot[name]; ok {
		return s
	}
	s := len(us.info)
	ni := nameInfo{name: name}
	ni.mpi, ni.isMPI = mpiConsts[name]
	us.info = append(us.info, ni)
	us.slot[name] = s
	return s
}

// resolve numbers u's names and annotates its tree.
func resolve(u *ftn.Unit) *unitSyms {
	us := &unitSyms{unit: u, info: make([]nameInfo, 1), slot: map[string]int{}}
	for _, p := range u.Params {
		us.params = append(us.params, us.slotOf(p))
	}
	expr := func(e ftn.Expr) {
		ftn.WalkExpr(e, func(n ftn.Expr) bool {
			switch n := n.(type) {
			case *ftn.Ident:
				n.Slot = us.slotOf(n.Name)
			case *ftn.Ref:
				n.Slot = us.slotOf(n.Name)
			}
			return true
		})
	}
	for _, d := range u.Decls {
		for _, e := range d.Entities {
			us.slotOf(e.Name)
			expr(e.Init)
			for _, dim := range d.DimsOf(e) {
				expr(dim.Lo)
				expr(dim.Hi)
			}
		}
	}
	ftn.Inspect(u.Body, func(s ftn.Stmt) bool {
		if do, ok := s.(*ftn.DoStmt); ok {
			do.Slot = us.slotOf(do.Var)
		}
		for _, e := range ftn.StmtExprs(s) {
			expr(e)
		}
		return true
	})
	return us
}
