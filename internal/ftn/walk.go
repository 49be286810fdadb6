package ftn

// Inspect traverses the statement list in source order, calling fn for every
// statement. If fn returns false for a compound statement, its body is not
// traversed.
func Inspect(stmts []Stmt, fn func(Stmt) bool) {
	for _, s := range stmts {
		if !fn(s) {
			continue
		}
		switch s := s.(type) {
		case *DoStmt:
			Inspect(s.Body, fn)
		case *IfStmt:
			Inspect(s.Then, fn)
			Inspect(s.Else, fn)
		}
	}
}

// StmtExprs returns the top-level expressions directly referenced by s
// (not those of nested statements).
func StmtExprs(s Stmt) []Expr {
	switch s := s.(type) {
	case *AssignStmt:
		return []Expr{s.LHS, s.RHS}
	case *DoStmt:
		out := []Expr{s.Lo, s.Hi}
		if s.Step != nil {
			out = append(out, s.Step)
		}
		return out
	case *IfStmt:
		return []Expr{s.Cond}
	case *CallStmt:
		return s.Args
	case *PrintStmt:
		return s.Args
	}
	return nil
}

// WalkExpr traverses e top-down; if fn returns false, children are skipped.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch e := e.(type) {
	case *Ref:
		for _, a := range e.Args {
			WalkExpr(a, fn)
		}
	case *Unary:
		WalkExpr(e.X, fn)
	case *Binary:
		WalkExpr(e.X, fn)
		WalkExpr(e.Y, fn)
	}
}

// ExprUses reports whether identifier name occurs anywhere in e.
func ExprUses(e Expr, name string) bool {
	found := false
	WalkExpr(e, func(n Expr) bool {
		if id, ok := n.(*Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// IdentsIn returns the set of identifier names appearing in e, including Ref
// names (which may be arrays or intrinsic functions).
func IdentsIn(e Expr) map[string]bool {
	out := make(map[string]bool)
	WalkExpr(e, func(n Expr) bool {
		switch n := n.(type) {
		case *Ident:
			out[n.Name] = true
		case *Ref:
			out[n.Name] = true
		}
		return true
	})
	return out
}

// EqualExpr reports structural equality of expressions (ignoring positions).
func EqualExpr(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case *Ident:
		y, ok := b.(*Ident)
		return ok && x.Name == y.Name
	case *IntLit:
		y, ok := b.(*IntLit)
		return ok && x.Value == y.Value
	case *RealLit:
		y, ok := b.(*RealLit)
		return ok && x.Value == y.Value
	case *StrLit:
		y, ok := b.(*StrLit)
		return ok && x.Value == y.Value
	case *BoolLit:
		y, ok := b.(*BoolLit)
		return ok && x.Value == y.Value
	case *Ref:
		y, ok := b.(*Ref)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !EqualExpr(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *Unary:
		y, ok := b.(*Unary)
		return ok && x.Op == y.Op && EqualExpr(x.X, y.X)
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && EqualExpr(x.X, y.X) && EqualExpr(x.Y, y.Y)
	}
	return false
}
