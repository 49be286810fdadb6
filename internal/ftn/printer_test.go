package ftn

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// reparse parses, prints, and reparses, returning both printed forms.
func reparse(t *testing.T, src string) (string, string) {
	t.Helper()
	f1, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out1 := Print(f1)
	f2, err := Parse(out1)
	if err != nil {
		t.Fatalf("reparse of printed output failed: %v\n--- printed:\n%s", err, out1)
	}
	return out1, Print(f2)
}

func TestPrintRoundtripFixpoint(t *testing.T) {
	// print(parse(print(parse(src)))) == print(parse(src)).
	sources := []string{
		figure2a,
		`
program indirect
  integer as(1:10, 1:10, 1:10)
  integer at(1:100)
  integer ar(1:10, 1:10, 1:10)
  integer iy, ix, tx, ty, ierr

  do iy = 1, 10
    call p(iy, at)
    do ix = 1, 100
      tx = mod(ix, 10)
      ty = ix/10
      as(tx, ty, iy) = at(ix)
    enddo
  enddo
  call mpi_alltoall(as, 100, mpi_integer, ar, 100, mpi_integer, mpi_comm_world, ierr)
end program indirect

subroutine p(iy, at)
  integer iy
  integer at(*)
  integer i
  do i = 1, 100
    at(i) = i + iy
  enddo
end subroutine p
`,
		`
program control
  integer i, j, x
  logical ok
  do i = 1, 10, 2
    do j = i, 10
      if (i*j > 20 .and. .not. ok) then
        x = x + 1
      else if (i == j) then
        x = x - 1
      else
        x = 0
      endif
    enddo
    if (x > 100) exit
  enddo
  print *, 'x =', x
end program control
`,
	}
	for i, src := range sources {
		out1, out2 := reparse(t, src)
		if out1 != out2 {
			t.Errorf("source %d: print not a fixpoint\n--- first:\n%s\n--- second:\n%s", i, out1, out2)
		}
	}
}

func TestPrintFigure2aShape(t *testing.T) {
	f := MustParse(figure2a)
	out := Print(f)
	for _, want := range []string{
		"program target",
		"implicit none",
		"include 'mpif.h'",
		"integer, parameter :: nx = 64",
		"do iy = 1, nx",
		"do ix = 1, nx",
		"as(ix) = ix + iy",
		"call mpi_alltoall(as, 8, mpi_integer, ar, 8, mpi_integer, mpi_comm_world, ierr)",
		"end program target",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q:\n%s", want, out)
		}
	}
}

// Random expression generator for the parse∘print property test.

func randExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return &IntLit{Value: int64(r.Intn(100))}
		case 1:
			names := []string{"a", "b", "c", "nx", "i", "j"}
			return &Ident{Name: names[r.Intn(len(names))]}
		default:
			arrs := []string{"as", "ar", "w"}
			n := 1 + r.Intn(2)
			ref := &Ref{Name: arrs[r.Intn(len(arrs))]}
			for k := 0; k < n; k++ {
				ref.Args = append(ref.Args, randExpr(r, depth-1))
			}
			return ref
		}
	}
	ops := []string{"+", "-", "*", "/", "**", "==", "/=", "<", "<=", ">", ">=", ".and.", ".or."}
	op := ops[r.Intn(len(ops))]
	// Keep types plausible: logical ops over comparisons, arithmetic over
	// arithmetic. For the roundtrip property, shape is all that matters.
	switch op {
	case ".and.", ".or.":
		x := &Binary{Op: "<", X: randArith(r, depth-1), Y: randArith(r, depth-1)}
		y := &Binary{Op: ">", X: randArith(r, depth-1), Y: randArith(r, depth-1)}
		return &Binary{Op: op, X: x, Y: y}
	case "==", "/=", "<", "<=", ">", ">=":
		return &Binary{Op: op, X: randArith(r, depth-1), Y: randArith(r, depth-1)}
	default:
		return &Binary{Op: op, X: randArith(r, depth-1), Y: randArith(r, depth-1)}
	}
}

func randArith(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return &IntLit{Value: int64(r.Intn(50))}
		}
		return &Ident{Name: []string{"a", "b", "i", "j"}[r.Intn(4)]}
	}
	if r.Intn(8) == 0 {
		return &Unary{Op: "-", X: randArith(r, depth-1)}
	}
	ops := []string{"+", "-", "*", "/", "**"}
	return &Binary{Op: ops[r.Intn(len(ops))], X: randArith(r, depth-1), Y: randArith(r, depth-1)}
}

func TestQuickExprPrintParseRoundtrip(t *testing.T) {
	// Property: parsing a printed expression yields a structurally equal AST.
	r := rand.New(rand.NewSource(20060610))
	check := func() bool {
		e := randExpr(r, 4)
		src := "program p\nx = " + ExprString(e) + "\nend program p\n"
		f, err := Parse(src)
		if err != nil {
			t.Logf("parse failed for %q: %v", ExprString(e), err)
			return false
		}
		got := f.Program().Body[0].(*AssignStmt).RHS
		if !EqualExpr(e, got) {
			t.Logf("roundtrip mismatch:\n  want %s\n  got  %s", ExprString(e), ExprString(got))
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickClonedEqual(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	check := func() bool {
		e := randExpr(r, 4)
		c := CloneExpr(e)
		return EqualExpr(e, c)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := MustParse(figure2a)
	c := CloneFile(f)
	// Mutate the clone; original must be unaffected.
	c.Units[0].Body[0].(*DoStmt).Var = "zz"
	if f.Units[0].Body[0].(*DoStmt).Var != "iy" {
		t.Error("clone shares DoStmt with original")
	}
	c.Units[0].Decls[0].Entities[0].Name = "mutated"
	if f.Units[0].Decls[0].Entities[0].Name == "mutated" {
		t.Error("clone shares Decl with original")
	}
}

func TestFreshNamer(t *testing.T) {
	f := MustParse(figure2a)
	fn := NewFreshNamer(f.Program())
	// "ix" is taken; "cc_j" is not.
	if got := fn.Fresh("ix"); got == "ix" {
		t.Errorf("Fresh(ix) = %q, want a renamed variant", got)
	}
	if got := fn.Fresh("cc_j"); got != "cc_j" {
		t.Errorf("Fresh(cc_j) = %q, want cc_j", got)
	}
	// Asking again must not reuse.
	if got := fn.Fresh("cc_j"); got == "cc_j" {
		t.Error("Fresh(cc_j) reused a taken name")
	}
}

func TestPrintStmtsIndent(t *testing.T) {
	f := MustParse("program p\ninteger i\ni = 1\nend program p\n")
	out := PrintStmts(f.Program().Body, 2)
	if !strings.HasPrefix(out, "    i = 1") {
		t.Errorf("indent wrong: %q", out)
	}
}
