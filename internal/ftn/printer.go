package ftn

import (
	"fmt"
	"strings"
)

// Print renders a File back to Fortran source in a canonical style:
// lower-case keywords, two-space indentation, minimal parentheses.
func Print(f *File) string {
	var pr printer
	for i, u := range f.Units {
		if i > 0 {
			pr.nl()
		}
		pr.unit(u)
	}
	return pr.sb.String()
}

// PrintStmts renders a statement list at the given indent level; used by
// golden tests and by cmd/paperfigs to show generated code fragments.
func PrintStmts(stmts []Stmt, indent int) string {
	pr := printer{indent: indent}
	pr.stmts(stmts)
	return pr.sb.String()
}

// ExprString renders a single expression.
func ExprString(e Expr) string {
	var pr printer
	return pr.expr(e, 0)
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (p *printer) line(format string, args ...interface{}) {
	p.sb.WriteString(strings.Repeat("  ", p.indent))
	fmt.Fprintf(&p.sb, format, args...)
	p.sb.WriteByte('\n')
}

func (p *printer) nl() { p.sb.WriteByte('\n') }

func (p *printer) unit(u *Unit) {
	switch u.Kind {
	case ProgramUnit:
		p.line("program %s", u.Name)
	case SubroutineUnit:
		if len(u.Params) > 0 {
			p.line("subroutine %s(%s)", u.Name, strings.Join(u.Params, ", "))
		} else {
			p.line("subroutine %s", u.Name)
		}
	case FunctionUnit:
		p.line("function %s(%s)", u.Name, strings.Join(u.Params, ", "))
	}
	p.indent++
	if u.ImplicitNone {
		p.line("implicit none")
	}
	for _, inc := range u.Includes {
		p.line("include '%s'", inc)
	}
	for _, d := range u.Decls {
		p.decl(d)
	}
	if len(u.Decls) > 0 || u.ImplicitNone || len(u.Includes) > 0 {
		p.nl()
	}
	p.stmts(u.Body)
	p.indent--
	switch u.Kind {
	case ProgramUnit:
		p.line("end program %s", u.Name)
	case SubroutineUnit:
		p.line("end subroutine %s", u.Name)
	case FunctionUnit:
		p.line("end function %s", u.Name)
	}
}

func (p *printer) decl(d *Decl) {
	var sb strings.Builder
	sb.WriteString(p.typeSpec(d.Type))
	attrs := false
	if d.Parameter {
		sb.WriteString(", parameter")
		attrs = true
	}
	if len(d.DimAttr) > 0 {
		sb.WriteString(", dimension(")
		sb.WriteString(p.dims(d.DimAttr))
		sb.WriteString(")")
		attrs = true
	}
	if d.Intent != "" {
		fmt.Fprintf(&sb, ", intent(%s)", d.Intent)
		attrs = true
	}
	if attrs {
		sb.WriteString(" :: ")
	} else {
		sb.WriteString(" ")
	}
	for i, e := range d.Entities {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(e.Name)
		if len(e.Dims) > 0 {
			sb.WriteString("(")
			sb.WriteString(p.dims(e.Dims))
			sb.WriteString(")")
		}
		if e.Init != nil {
			sb.WriteString(" = ")
			sb.WriteString(p.expr(e.Init, 0))
		}
	}
	p.line("%s", sb.String())
}

func (p *printer) typeSpec(t TypeSpec) string {
	switch t.Base {
	case TCharacter:
		if t.Len != nil {
			return fmt.Sprintf("character(len=%s)", p.expr(t.Len, 0))
		}
		return "character"
	default:
		return t.Base.String()
	}
}

func (p *printer) dims(dims []Dim) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		switch {
		case d.Lo == nil && d.Hi == nil:
			parts[i] = "*"
		case d.Lo == nil:
			parts[i] = p.expr(d.Hi, 0)
		case d.Hi == nil:
			parts[i] = p.expr(d.Lo, 0) + ":*"
		default:
			parts[i] = p.expr(d.Lo, 0) + ":" + p.expr(d.Hi, 0)
		}
	}
	return strings.Join(parts, ", ")
}

func (p *printer) stmts(list []Stmt) {
	for _, s := range list {
		p.stmt(s)
	}
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *AssignStmt:
		p.line("%s = %s", p.expr(s.LHS, 0), p.expr(s.RHS, 0))
	case *DoStmt:
		if s.Step != nil {
			p.line("do %s = %s, %s, %s", s.Var, p.expr(s.Lo, 0), p.expr(s.Hi, 0), p.expr(s.Step, 0))
		} else {
			p.line("do %s = %s, %s", s.Var, p.expr(s.Lo, 0), p.expr(s.Hi, 0))
		}
		p.indent++
		p.stmts(s.Body)
		p.indent--
		p.line("enddo")
	case *IfStmt:
		p.ifChain(s, "if")
		p.line("endif")
	case *CallStmt:
		if len(s.Args) == 0 {
			p.line("call %s()", s.Name)
		} else {
			p.line("call %s(%s)", s.Name, p.exprList(s.Args))
		}
	case *PrintStmt:
		if len(s.Args) == 0 {
			p.line("print *")
		} else {
			p.line("print *, %s", p.exprList(s.Args))
		}
	case *ReturnStmt:
		p.line("return")
	case *StopStmt:
		p.line("stop")
	case *ContinueStmt:
		p.line("continue")
	case *ExitStmt:
		p.line("exit")
	case *CycleStmt:
		p.line("cycle")
	case *CommentStmt:
		p.line("%s", s.Text)
	default:
		p.line("! <unknown statement %T>", s)
	}
}

// ifChain prints an IF construct header and branches, flattening else-if
// chains; the caller prints the final "endif".
func (p *printer) ifChain(s *IfStmt, kw string) {
	p.line("%s (%s) then", kw, p.expr(s.Cond, 0))
	p.indent++
	p.stmts(s.Then)
	p.indent--
	if len(s.Else) == 1 {
		if nested, ok := s.Else[0].(*IfStmt); ok {
			p.ifChain(nested, "else if")
			return
		}
	}
	if len(s.Else) > 0 {
		p.line("else")
		p.indent++
		p.stmts(s.Else)
		p.indent--
	}
}

func (p *printer) exprList(list []Expr) string {
	parts := make([]string, len(list))
	for i, e := range list {
		parts[i] = p.expr(e, 0)
	}
	return strings.Join(parts, ", ")
}

// Operator precedence for minimal parenthesization. Higher binds tighter.
func opPrec(op string) int {
	switch op {
	case ".or.":
		return 1
	case ".and.":
		return 2
	case ".not.":
		return 3
	case "==", "/=", "<", "<=", ">", ">=":
		return 4
	case "+", "-", "u-": // unary sign has the same precedence as binary +/-
		return 5
	case "*", "/":
		return 6
	case "**":
		return 8
	}
	return 9
}

// expr prints e; parent is the precedence of the enclosing operator; the
// result is parenthesized when needed to preserve structure.
func (p *printer) expr(e Expr, parent int) string {
	switch e := e.(type) {
	case *Ident:
		return e.Name
	case *IntLit:
		return fmt.Sprintf("%d", e.Value)
	case *RealLit:
		if e.Text != "" {
			return e.Text
		}
		s := fmt.Sprintf("%g", e.Value)
		if !strings.ContainsAny(s, ".e") {
			s += ".0"
		}
		return s
	case *StrLit:
		return "'" + strings.ReplaceAll(e.Value, "'", "''") + "'"
	case *BoolLit:
		if e.Value {
			return ".true."
		}
		return ".false."
	case *Ref:
		return e.Name + "(" + p.exprList(e.Args) + ")"
	case *Unary:
		prec := opPrec("u-")
		if e.Op == ".not." {
			prec = opPrec(".not.")
		}
		// The operand must bind at least as tightly as the sign itself
		// ("-(a + b)" needs parens; "-a * b" does not).
		inner := p.expr(e.X, prec+1)
		// A signed operand directly under a sign ("- -x") is illegal.
		if e.Op != ".not." && len(inner) > 0 && (inner[0] == '-' || inner[0] == '+') {
			inner = "(" + inner + ")"
		}
		s := e.Op + inner
		if e.Op == ".not." {
			s = e.Op + " " + inner
		}
		if prec < parent {
			return "(" + s + ")"
		}
		return s
	case *Binary:
		prec := opPrec(e.Op)
		// Binary operators are left-associative except '**': parenthesize
		// an equal-precedence right operand so tree shape survives a
		// print/parse roundtrip; mirror-image for the right-associative '**'.
		lprec, rprec := prec, prec+1
		if e.Op == "**" {
			lprec, rprec = prec+1, prec
		}
		lhs := p.expr(e.X, lprec)
		rhs := p.expr(e.Y, rprec)
		// Fortran forbids two consecutive operators ("a - -b"); wrap a
		// signed right operand in parentheses.
		if len(rhs) > 0 && (rhs[0] == '-' || rhs[0] == '+') {
			rhs = "(" + rhs + ")"
		}
		var s string
		switch e.Op {
		case "**":
			s = lhs + e.Op + rhs
		default:
			s = lhs + " " + e.Op + " " + rhs
		}
		if prec < parent {
			return "(" + s + ")"
		}
		return s
	}
	return fmt.Sprintf("<?expr %T>", e)
}
