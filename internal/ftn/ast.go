package ftn

import "fmt"

// Node is the interface implemented by every AST node.
type Node interface {
	Pos() Pos
}

// File is a parsed source file containing one or more program units.
type File struct {
	Units []*Unit
}

// Pos returns the position of the first unit.
func (f *File) Pos() Pos {
	if len(f.Units) > 0 {
		return f.Units[0].Pos()
	}
	return Pos{}
}

// Program returns the main program unit, or nil if the file has none.
func (f *File) Program() *Unit {
	for _, u := range f.Units {
		if u.Kind == ProgramUnit {
			return u
		}
	}
	return nil
}

// Subroutine returns the subroutine named name (lower case), or nil.
func (f *File) Subroutine(name string) *Unit {
	for _, u := range f.Units {
		if u.Kind == SubroutineUnit && u.Name == name {
			return u
		}
	}
	return nil
}

// UnitKind distinguishes program units.
type UnitKind int

// Program unit kinds.
const (
	ProgramUnit UnitKind = iota
	SubroutineUnit
	FunctionUnit
)

// String names the unit kind as it appears in source.
func (k UnitKind) String() string {
	switch k {
	case ProgramUnit:
		return "program"
	case SubroutineUnit:
		return "subroutine"
	case FunctionUnit:
		return "function"
	}
	return fmt.Sprintf("UnitKind(%d)", int(k))
}

// Unit is a program, subroutine, or function unit.
type Unit struct {
	Kind         UnitKind
	Name         string
	Params       []string
	ImplicitNone bool
	Includes     []string // include 'path' lines, preserved verbatim
	Decls        []*Decl
	Body         []Stmt
	Result       *TypeSpec // function result type, nil otherwise
	XPos         Pos
}

// Pos returns the unit's source position.
func (u *Unit) Pos() Pos { return u.XPos }

// BaseType enumerates the scalar base types of the subset.
type BaseType int

// Base types.
const (
	TInteger BaseType = iota
	TReal
	TDouble
	TLogical
	TCharacter
)

// String names the base type as it appears in source.
func (t BaseType) String() string {
	switch t {
	case TInteger:
		return "integer"
	case TReal:
		return "real"
	case TDouble:
		return "double precision"
	case TLogical:
		return "logical"
	case TCharacter:
		return "character"
	}
	return fmt.Sprintf("BaseType(%d)", int(t))
}

// TypeSpec is a type specifier, e.g. "integer" or "character(len=32)".
type TypeSpec struct {
	Base BaseType
	Len  Expr // character length, nil otherwise
}

// Dim is one array dimension with inclusive bounds; Lo == nil means 1.
type Dim struct {
	Lo Expr
	Hi Expr
}

// Entity is one declared name within a declaration statement.
type Entity struct {
	Name string
	Dims []Dim // nil for scalars (unless Decl.DimAttr applies)
	Init Expr  // parameter initializer, nil otherwise
}

// Decl is a type declaration statement, possibly declaring several entities.
type Decl struct {
	Type      TypeSpec
	Parameter bool
	Intent    string // "", "in", "out", "inout"
	DimAttr   []Dim  // dimension(...) attribute applied to all entities
	Entities  []*Entity
	XPos      Pos
}

// Pos returns the declaration's source position.
func (d *Decl) Pos() Pos { return d.XPos }

// DimsOf returns the effective dimensions of entity e under this decl.
func (d *Decl) DimsOf(e *Entity) []Dim {
	if len(e.Dims) > 0 {
		return e.Dims
	}
	return d.DimAttr
}

// Stmt is the interface implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// AssignStmt is "lhs = rhs"; LHS is an *Ident or *Ref.
type AssignStmt struct {
	LHS  Expr
	RHS  Expr
	XPos Pos
}

// DoStmt is a counted DO loop with inclusive bounds and optional step.
type DoStmt struct {
	Var  string
	Lo   Expr
	Hi   Expr
	Step Expr // nil means 1
	Body []Stmt
	XPos Pos
	Slot int // of Var; see Ident.Slot
}

// IfStmt is a block IF; ELSE IF chains are nested as a single IfStmt in Else.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	XPos Pos
}

// CallStmt is "call name(args)".
type CallStmt struct {
	Name string
	Args []Expr
	XPos Pos
}

// PrintStmt is "print *, args" (or "write(*,*) args").
type PrintStmt struct {
	Args []Expr
	XPos Pos
}

// ReturnStmt is "return".
type ReturnStmt struct{ XPos Pos }

// StopStmt is "stop".
type StopStmt struct{ XPos Pos }

// ContinueStmt is "continue" (a no-op).
type ContinueStmt struct{ XPos Pos }

// ExitStmt is "exit" (break innermost loop).
type ExitStmt struct{ XPos Pos }

// CycleStmt is "cycle" (continue innermost loop).
type CycleStmt struct{ XPos Pos }

// CommentStmt preserves a whole-line '!' comment through transformation.
type CommentStmt struct {
	Text string // includes the leading '!'
	XPos Pos
}

// Pos implementations.
func (s *AssignStmt) Pos() Pos   { return s.XPos }
func (s *DoStmt) Pos() Pos       { return s.XPos }
func (s *IfStmt) Pos() Pos       { return s.XPos }
func (s *CallStmt) Pos() Pos     { return s.XPos }
func (s *PrintStmt) Pos() Pos    { return s.XPos }
func (s *ReturnStmt) Pos() Pos   { return s.XPos }
func (s *StopStmt) Pos() Pos     { return s.XPos }
func (s *ContinueStmt) Pos() Pos { return s.XPos }
func (s *ExitStmt) Pos() Pos     { return s.XPos }
func (s *CycleStmt) Pos() Pos    { return s.XPos }
func (s *CommentStmt) Pos() Pos  { return s.XPos }

func (*AssignStmt) stmtNode()   {}
func (*DoStmt) stmtNode()       {}
func (*IfStmt) stmtNode()       {}
func (*CallStmt) stmtNode()     {}
func (*PrintStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()   {}
func (*StopStmt) stmtNode()     {}
func (*ContinueStmt) stmtNode() {}
func (*ExitStmt) stmtNode()     {}
func (*CycleStmt) stmtNode()    {}
func (*CommentStmt) stmtNode()  {}

// Expr is the interface implemented by all expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Ident is a bare name (variable or named constant).
type Ident struct {
	Name string
	XPos Pos
	// Slot is the name's number within its unit, 0 while unresolved. Only the
	// walk oracle's Load writes it, on a file it parsed itself and before
	// anything runs; it is an annotation of that one loaded tree, not syntax —
	// the printer and EqualExpr ignore it and clones do not carry it.
	Slot int
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	XPos  Pos
}

// RealLit is a real literal; Text preserves the source spelling.
type RealLit struct {
	Value float64
	Text  string
	XPos  Pos
}

// StrLit is a character literal.
type StrLit struct {
	Value string
	XPos  Pos
}

// BoolLit is .true. or .false..
type BoolLit struct {
	Value bool
	XPos  Pos
}

// Ref is "name(args)": an array element reference or a function call; which
// one is resolved against declarations (see Unit symbol helpers).
type Ref struct {
	Name string
	Args []Expr
	XPos Pos
	Slot int // of Name; see Ident.Slot
}

// Unary is a unary operation; Op is "-", "+", or ".not.".
type Unary struct {
	Op   string
	X    Expr
	XPos Pos
}

// Binary is a binary operation; Op is one of
// "+", "-", "*", "/", "**", "==", "/=", "<", "<=", ">", ">=", ".and.", ".or.".
type Binary struct {
	Op   string
	X    Expr
	Y    Expr
	XPos Pos
}

// Pos implementations.
func (e *Ident) Pos() Pos   { return e.XPos }
func (e *IntLit) Pos() Pos  { return e.XPos }
func (e *RealLit) Pos() Pos { return e.XPos }
func (e *StrLit) Pos() Pos  { return e.XPos }
func (e *BoolLit) Pos() Pos { return e.XPos }
func (e *Ref) Pos() Pos     { return e.XPos }
func (e *Unary) Pos() Pos   { return e.XPos }
func (e *Binary) Pos() Pos  { return e.XPos }

func (*Ident) exprNode()   {}
func (*IntLit) exprNode()  {}
func (*RealLit) exprNode() {}
func (*StrLit) exprNode()  {}
func (*BoolLit) exprNode() {}
func (*Ref) exprNode()     {}
func (*Unary) exprNode()   {}
func (*Binary) exprNode()  {}

// Convenience constructors used heavily by the transformation code.

// Id returns an identifier expression.
func Id(name string) *Ident { return &Ident{Name: name} }

// Int returns an integer literal expression.
func Int(v int64) *IntLit { return &IntLit{Value: v} }

// Call returns a Ref expression (function call or array reference).
func Call(name string, args ...Expr) *Ref { return &Ref{Name: name, Args: args} }

// Bin returns a binary expression.
func Bin(op string, x, y Expr) *Binary { return &Binary{Op: op, X: x, Y: y} }

// Add returns x + y, folding integer literals and the (e - c) + c pattern
// the tiling code generator produces.
func Add(x, y Expr) Expr {
	if xi, ok := x.(*IntLit); ok {
		if yi, ok := y.(*IntLit); ok {
			return Int(xi.Value + yi.Value)
		}
		if xi.Value == 0 {
			return y
		}
	}
	if yi, ok := y.(*IntLit); ok {
		if yi.Value == 0 {
			return x
		}
		if xb, ok := x.(*Binary); ok && xb.Op == "-" {
			if ci, ok := xb.Y.(*IntLit); ok {
				if ci.Value == yi.Value {
					return xb.X
				}
				return Add(xb.X, Int(yi.Value-ci.Value))
			}
		}
		if xb, ok := x.(*Binary); ok && xb.Op == "+" {
			if ci, ok := xb.Y.(*IntLit); ok {
				return Add(xb.X, Int(ci.Value+yi.Value))
			}
		}
	}
	return Bin("+", x, y)
}

// Sub returns x - y, folding integer literals.
func Sub(x, y Expr) Expr {
	if xi, ok := x.(*IntLit); ok {
		if yi, ok := y.(*IntLit); ok {
			return Int(xi.Value - yi.Value)
		}
	}
	if yi, ok := y.(*IntLit); ok && yi.Value == 0 {
		return x
	}
	return Bin("-", x, y)
}

// Mul returns x * y, folding integer literals and identities.
func Mul(x, y Expr) Expr {
	if xi, ok := x.(*IntLit); ok {
		if yi, ok := y.(*IntLit); ok {
			return Int(xi.Value * yi.Value)
		}
		if xi.Value == 1 {
			return y
		}
		if xi.Value == 0 {
			return Int(0)
		}
	}
	if yi, ok := y.(*IntLit); ok {
		if yi.Value == 1 {
			return x
		}
		if yi.Value == 0 {
			return Int(0)
		}
	}
	return Bin("*", x, y)
}

// Div returns x / y (integer division in integer context), folding literals.
func Div(x, y Expr) Expr {
	if yi, ok := y.(*IntLit); ok && yi.Value == 1 {
		return x
	}
	if xi, ok := x.(*IntLit); ok {
		if yi, ok := y.(*IntLit); ok && yi.Value != 0 {
			return Int(xi.Value / yi.Value)
		}
	}
	return Bin("/", x, y)
}

// Mod returns mod(x, y).
func Mod(x, y Expr) Expr { return Call("mod", x, y) }
