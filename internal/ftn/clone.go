package ftn

// CloneExpr returns a deep copy of e.
func CloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch e := e.(type) {
	case *Ident:
		return &Ident{Name: e.Name, XPos: e.XPos}
	case *IntLit:
		c := *e
		return &c
	case *RealLit:
		c := *e
		return &c
	case *StrLit:
		c := *e
		return &c
	case *BoolLit:
		c := *e
		return &c
	case *Ref:
		c := &Ref{Name: e.Name, XPos: e.XPos}
		for _, a := range e.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	case *Unary:
		return &Unary{Op: e.Op, X: CloneExpr(e.X), XPos: e.XPos}
	case *Binary:
		return &Binary{Op: e.Op, X: CloneExpr(e.X), Y: CloneExpr(e.Y), XPos: e.XPos}
	}
	return e
}

// CloneStmt returns a deep copy of s.
func CloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *AssignStmt:
		return &AssignStmt{LHS: CloneExpr(s.LHS), RHS: CloneExpr(s.RHS), XPos: s.XPos}
	case *DoStmt:
		return &DoStmt{
			Var: s.Var, Lo: CloneExpr(s.Lo), Hi: CloneExpr(s.Hi), Step: CloneExpr(s.Step),
			Body: CloneStmts(s.Body), XPos: s.XPos,
		}
	case *IfStmt:
		return &IfStmt{Cond: CloneExpr(s.Cond), Then: CloneStmts(s.Then), Else: CloneStmts(s.Else), XPos: s.XPos}
	case *CallStmt:
		c := &CallStmt{Name: s.Name, XPos: s.XPos}
		for _, a := range s.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	case *PrintStmt:
		c := &PrintStmt{XPos: s.XPos}
		for _, a := range s.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	case *ReturnStmt:
		c := *s
		return &c
	case *StopStmt:
		c := *s
		return &c
	case *ContinueStmt:
		c := *s
		return &c
	case *ExitStmt:
		c := *s
		return &c
	case *CycleStmt:
		c := *s
		return &c
	case *CommentStmt:
		c := *s
		return &c
	}
	return s
}

// CloneStmts deep-copies a statement list.
func CloneStmts(list []Stmt) []Stmt {
	if list == nil {
		return nil
	}
	out := make([]Stmt, len(list))
	for i, s := range list {
		out[i] = CloneStmt(s)
	}
	return out
}

// CloneDecl returns a deep copy of d.
func CloneDecl(d *Decl) *Decl {
	c := &Decl{Type: d.Type, Parameter: d.Parameter, Intent: d.Intent, XPos: d.XPos}
	c.Type.Len = CloneExpr(d.Type.Len)
	for _, dm := range d.DimAttr {
		c.DimAttr = append(c.DimAttr, Dim{Lo: CloneExpr(dm.Lo), Hi: CloneExpr(dm.Hi)})
	}
	for _, e := range d.Entities {
		ne := &Entity{Name: e.Name, Init: CloneExpr(e.Init)}
		for _, dm := range e.Dims {
			ne.Dims = append(ne.Dims, Dim{Lo: CloneExpr(dm.Lo), Hi: CloneExpr(dm.Hi)})
		}
		c.Entities = append(c.Entities, ne)
	}
	return c
}

// CloneUnit returns a deep copy of u.
func CloneUnit(u *Unit) *Unit {
	c := &Unit{
		Kind: u.Kind, Name: u.Name, ImplicitNone: u.ImplicitNone, XPos: u.XPos,
	}
	c.Params = append([]string(nil), u.Params...)
	c.Includes = append([]string(nil), u.Includes...)
	for _, d := range u.Decls {
		c.Decls = append(c.Decls, CloneDecl(d))
	}
	c.Body = CloneStmts(u.Body)
	if u.Result != nil {
		r := *u.Result
		r.Len = CloneExpr(u.Result.Len)
		c.Result = &r
	}
	return c
}

// CloneFile returns a deep copy of f.
func CloneFile(f *File) *File {
	c := &File{}
	for _, u := range f.Units {
		c.Units = append(c.Units, CloneUnit(u))
	}
	return c
}
