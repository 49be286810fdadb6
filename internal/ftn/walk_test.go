package ftn

import (
	"reflect"
	"strings"
	"testing"
)

const walkFixture = `
program walks
  implicit none
  integer a(1:4)
  integer i, s
  s = 1
  do i = 1, 4
    a(i) = i*2
    if (a(i) > 4) then
      s = s + a(i)
    else
      s = s - 1
    endif
  enddo
  print *, s
end program walks
`

// stmtLabel names a statement kind for order assertions.
func stmtLabel(s Stmt) string {
	switch s := s.(type) {
	case *AssignStmt:
		return "assign"
	case *DoStmt:
		return "do(" + s.Var + ")"
	case *IfStmt:
		return "if"
	case *PrintStmt:
		return "print"
	case *CallStmt:
		return "call(" + s.Name + ")"
	}
	return "other"
}

// TestInspectSourceOrder pins the traversal order: statements appear in
// source order, compound bodies immediately after their header (then-branch
// before else-branch).
func TestInspectSourceOrder(t *testing.T) {
	f, err := Parse(walkFixture)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	Inspect(f.Program().Body, func(s Stmt) bool {
		got = append(got, stmtLabel(s))
		return true
	})
	want := []string{"assign", "do(i)", "assign", "if", "assign", "assign", "print"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("traversal order %v, want %v", got, want)
	}
}

// TestInspectPruning: returning false on a compound statement must skip its
// body but continue with its siblings.
func TestInspectPruning(t *testing.T) {
	f, err := Parse(walkFixture)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	Inspect(f.Program().Body, func(s Stmt) bool {
		got = append(got, stmtLabel(s))
		_, isDo := s.(*DoStmt)
		return !isDo
	})
	want := []string{"assign", "do(i)", "print"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pruned traversal %v, want %v", got, want)
	}
}

// TestWalkExprTopDown: parents are visited before children, left subtree
// before right, and returning false prunes the subtree.
func TestWalkExprTopDown(t *testing.T) {
	// (a(i) + 3) * -b
	e := Bin("*",
		Bin("+", &Ref{Name: "a", Args: []Expr{&Ident{Name: "i"}}}, Int(3)),
		&Unary{Op: "-", X: &Ident{Name: "b"}},
	)
	var order []string
	WalkExpr(e, func(x Expr) bool {
		switch x := x.(type) {
		case *Binary:
			order = append(order, x.Op)
		case *Unary:
			order = append(order, "u"+x.Op)
		case *Ref:
			order = append(order, x.Name+"(")
		case *Ident:
			order = append(order, x.Name)
		case *IntLit:
			order = append(order, "3")
		}
		return true
	})
	want := []string{"*", "+", "a(", "i", "3", "u-", "b"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("walk order %v, want %v", order, want)
	}

	order = nil
	WalkExpr(e, func(x Expr) bool {
		switch x := x.(type) {
		case *Binary:
			order = append(order, x.Op)
		case *Ref:
			order = append(order, x.Name+"(")
		case *Unary:
			order = append(order, "u"+x.Op)
		default:
			order = append(order, "leaf")
		}
		// Prune below the Ref.
		_, isRef := x.(*Ref)
		return !isRef
	})
	want = []string{"*", "+", "a(", "leaf", "u-", "leaf"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("pruned walk order %v, want %v", order, want)
	}
}

// TestExprUsesAndIdentsIn covers the query helpers on a mixed expression.
func TestExprUsesAndIdentsIn(t *testing.T) {
	e := Bin("+", &Ref{Name: "arr", Args: []Expr{&Ident{Name: "i"}}}, &Ident{Name: "n"})
	if !ExprUses(e, "i") || !ExprUses(e, "n") {
		t.Error("ExprUses missed a present identifier")
	}
	if ExprUses(e, "arr2") {
		t.Error("ExprUses found an absent identifier")
	}
	ids := IdentsIn(e)
	for _, want := range []string{"arr", "i", "n"} {
		if !ids[want] {
			t.Errorf("IdentsIn missed %s: %v", want, ids)
		}
	}
	if len(ids) != 3 {
		t.Errorf("IdentsIn returned extras: %v", ids)
	}
}

// Expr2String renders an expression via a throwaway assignment so the test
// doesn't depend on printer internals.
func Expr2String(e Expr) string {
	f := &File{Units: []*Unit{{
		Kind: ProgramUnit, Name: "p",
		Body: []Stmt{&AssignStmt{LHS: &Ident{Name: "t"}, RHS: e}},
	}}}
	out := Print(f)
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "t = ") {
			return strings.TrimPrefix(line, "t = ")
		}
	}
	return out
}
