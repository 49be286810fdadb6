package ftn

import (
	"strings"
	"testing"
)

// Rank returns the number of array dimensions (0 for scalars).
func (s *Symbol) Rank() int { return len(s.Dims) }

// figure2a is the paper's abstract target code (Fig. 2a), adapted to
// concrete MPI syntax.
const figure2a = `
program target
  implicit none
  include 'mpif.h'
  integer, parameter :: nx = 64
  integer as(1:nx)
  integer ar(1:nx)
  integer ix, iy, ierr

  do iy = 1, nx
    do ix = 1, nx
      as(ix) = ix + iy
    enddo
    call mpi_alltoall(as, 8, mpi_integer, ar, 8, mpi_integer, mpi_comm_world, ierr)
  enddo
end program target
`

func TestParseFigure2a(t *testing.T) {
	f, err := Parse(figure2a)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	u := f.Program()
	if u == nil {
		t.Fatal("no program unit")
	}
	if u.Name != "target" {
		t.Errorf("program name = %q", u.Name)
	}
	if !u.ImplicitNone {
		t.Error("implicit none not recorded")
	}
	if len(u.Includes) != 1 || u.Includes[0] != "mpif.h" {
		t.Errorf("includes = %v", u.Includes)
	}
	st := Symbols(u)
	isArray := func(name string) bool {
		s := st.Lookup(name)
		return s != nil && s.IsArray()
	}
	if !isArray("as") || !isArray("ar") {
		t.Error("as/ar should be arrays")
	}
	if sym := st.Lookup("nx"); sym == nil || !sym.Parameter {
		t.Error("nx should be a parameter")
	}
	if isArray("ix") {
		t.Error("ix should be scalar")
	}
	// Body: one outer do containing inner do + call.
	if len(u.Body) != 1 {
		t.Fatalf("body has %d stmts, want 1", len(u.Body))
	}
	outer, ok := u.Body[0].(*DoStmt)
	if !ok {
		t.Fatalf("body[0] is %T, want *DoStmt", u.Body[0])
	}
	if outer.Var != "iy" {
		t.Errorf("outer loop var = %q", outer.Var)
	}
	if len(outer.Body) != 2 {
		t.Fatalf("outer body has %d stmts, want 2", len(outer.Body))
	}
	inner, ok := outer.Body[0].(*DoStmt)
	if !ok || inner.Var != "ix" {
		t.Fatalf("inner loop wrong: %#v", outer.Body[0])
	}
	call, ok := outer.Body[1].(*CallStmt)
	if !ok || call.Name != "mpi_alltoall" {
		t.Fatalf("call wrong: %#v", outer.Body[1])
	}
	if len(call.Args) != 8 {
		t.Errorf("alltoall has %d args, want 8", len(call.Args))
	}
}

func TestParseSubroutine(t *testing.T) {
	src := `
subroutine p(n, at)
  integer n
  integer at(*)
  integer i
  do i = 1, n
    at(i) = i*i
  enddo
  return
end subroutine p
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	u := f.Subroutine("p")
	if u == nil {
		t.Fatal("subroutine p not found")
	}
	if len(u.Params) != 2 || u.Params[0] != "n" || u.Params[1] != "at" {
		t.Errorf("params = %v", u.Params)
	}
	st := Symbols(u)
	sym := st.Lookup("at")
	if sym == nil || !sym.IsArray() || !sym.IsParam {
		t.Errorf("at symbol = %+v", sym)
	}
	if sym.Dims[0].Lo != nil || sym.Dims[0].Hi != nil {
		t.Errorf("assumed-size dims = %+v", sym.Dims)
	}
}

func TestParseIfElseChain(t *testing.T) {
	src := `
program p
  integer x, y
  if (x > 0) then
    y = 1
  else if (x < 0) then
    y = -1
  else
    y = 0
  endif
end program p
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	u := f.Program()
	s, ok := u.Body[0].(*IfStmt)
	if !ok {
		t.Fatalf("not an if: %T", u.Body[0])
	}
	if len(s.Then) != 1 || len(s.Else) != 1 {
		t.Fatalf("then/else sizes: %d/%d", len(s.Then), len(s.Else))
	}
	nested, ok := s.Else[0].(*IfStmt)
	if !ok {
		t.Fatalf("else-if not nested: %T", s.Else[0])
	}
	if len(nested.Else) != 1 {
		t.Fatalf("final else missing")
	}
}

func TestParseOneLineIf(t *testing.T) {
	src := `
program p
  integer i, k
  do i = 1, 10
    if (mod(i, k) == 0) call flush(i)
  enddo
end program p
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	do := f.Program().Body[0].(*DoStmt)
	ifs, ok := do.Body[0].(*IfStmt)
	if !ok {
		t.Fatalf("not if: %T", do.Body[0])
	}
	if _, ok := ifs.Then[0].(*CallStmt); !ok {
		t.Fatalf("one-line if body: %T", ifs.Then[0])
	}
	if len(ifs.Else) != 0 {
		t.Error("one-line if has else")
	}
}

func TestParseDeclForms(t *testing.T) {
	src := `
program p
  integer, parameter :: np = 8
  integer, dimension(1:10, 1:10) :: a, b
  real x
  real*8 d
  double precision e
  logical flag
  character(len=16) name
  integer c(0:np-1)
  integer nx
  parameter (nx = 64)
end program p
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	st := Symbols(f.Program())
	if s := st.Lookup("np"); s == nil || !s.Parameter || s.Init == nil {
		t.Errorf("np = %+v", s)
	}
	if s := st.Lookup("a"); s == nil || s.Rank() != 2 {
		t.Errorf("a = %+v", s)
	}
	if s := st.Lookup("b"); s == nil || s.Rank() != 2 {
		t.Errorf("b = %+v", s)
	}
	if s := st.Lookup("d"); s == nil || s.Type.Base != TDouble {
		t.Errorf("d = %+v", s)
	}
	if s := st.Lookup("e"); s == nil || s.Type.Base != TDouble {
		t.Errorf("e = %+v", s)
	}
	if s := st.Lookup("flag"); s == nil || s.Type.Base != TLogical {
		t.Errorf("flag = %+v", s)
	}
	if s := st.Lookup("name"); s == nil || s.Type.Base != TCharacter {
		t.Errorf("name = %+v", s)
	}
	if s := st.Lookup("c"); s == nil || s.Rank() != 1 || s.Dims[0].Lo == nil {
		t.Errorf("c = %+v", s)
	}
	if s := st.Lookup("nx"); s == nil || !s.Parameter || s.Init == nil {
		t.Errorf("nx (F77 parameter) = %+v", s)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	cases := []struct{ src, want string }{
		{"a + b*c", "a + b * c"},
		{"(a + b)*c", "(a + b) * c"},
		{"a - b - c", "a - b - c"},
		{"a - (b - c)", "a - (b - c)"},
		{"-a**2", "-a**2"},
		{"a**b**c", "a**b**c"},
		{"a .and. b .or. c", "a .and. b .or. c"},
		{"a .and. (b .or. c)", "a .and. (b .or. c)"},
		{"x <= y + 1", "x <= y + 1"},
		{"mod(i, k) == 0", "mod(i, k) == 0"},
		{"ix % 10", "mod(ix, 10)"},
		{".not. (a .or. b)", ".not. (a .or. b)"},
		{"a(i, j+1) * 2", "a(i, j + 1) * 2"},
		{"1.eq.n", "1 == n"},
	}
	for _, c := range cases {
		src := "program p\nx = " + c.src + "\nend program p\n"
		f, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		got := ExprString(f.Program().Body[0].(*AssignStmt).RHS)
		if got != c.want {
			t.Errorf("expr %q printed as %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseKeywordNamedVariables(t *testing.T) {
	// Fortran has no reserved words: "if", "do", "end" can be variables.
	src := `
program p
  integer if, do, end
  if = 1
  do = if + 1
  end = do + 1
end program p
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n := len(f.Program().Body); n != 3 {
		t.Fatalf("body has %d stmts, want 3", n)
	}
}

func TestParsePrintAndWrite(t *testing.T) {
	src := `
program p
  integer i
  print *, 'value', i, i + 1
  write(*,*) 'w', i
  print *
end program p
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	body := f.Program().Body
	p0 := body[0].(*PrintStmt)
	if len(p0.Args) != 3 {
		t.Errorf("print args = %d, want 3", len(p0.Args))
	}
	p1 := body[1].(*PrintStmt)
	if len(p1.Args) != 2 {
		t.Errorf("write args = %d, want 2", len(p1.Args))
	}
	p2 := body[2].(*PrintStmt)
	if len(p2.Args) != 0 {
		t.Errorf("bare print args = %d, want 0", len(p2.Args))
	}
}

func TestParseCommentsPreserved(t *testing.T) {
	src := `
program p
  integer i
  ! leading comment
  i = 1
end program p
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	body := f.Program().Body
	if len(body) != 2 {
		t.Fatalf("body = %d stmts, want 2 (comment+assign)", len(body))
	}
	c, ok := body[0].(*CommentStmt)
	if !ok || !strings.Contains(c.Text, "leading comment") {
		t.Errorf("comment stmt = %#v", body[0])
	}
}

func TestParseDoWithStep(t *testing.T) {
	src := "program p\ninteger i, s\ndo i = 10, 1, -1\ns = s + i\nenddo\nend program p\n"
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	do := f.Program().Body[0].(*DoStmt)
	if do.Step == nil {
		t.Fatal("step missing")
	}
	u, ok := do.Step.(*Unary)
	if !ok || u.Op != "-" {
		t.Errorf("step = %#v", do.Step)
	}
}

func TestParseMultipleUnits(t *testing.T) {
	src := `
program main
  integer x
  call helper(x)
end program main

subroutine helper(x)
  integer x
  x = 42
end subroutine helper
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.Units) != 2 {
		t.Fatalf("units = %d, want 2", len(f.Units))
	}
	if f.Subroutine("helper") == nil {
		t.Error("helper not found")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"program p\ndo i = 1\nenddo\nend program p\n",   // missing hi bound comma
		"program p\nif (x then\nendif\nend program p\n", // bad cond
		"program p\nx = \nend program p\n",              // missing rhs
		"program p\n",                                   // missing end
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseSemicolonSeparator(t *testing.T) {
	src := "program p\ninteger a, b\na = 1; b = 2\nend program p\n"
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n := len(f.Program().Body); n != 2 {
		t.Fatalf("body = %d stmts, want 2", n)
	}
}

func TestParseExitCycleStopReturn(t *testing.T) {
	src := `
program p
  integer i
  do i = 1, 10
    if (i == 5) exit
    if (i == 2) cycle
    continue
  enddo
  stop
end program p
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	do := f.Program().Body[0].(*DoStmt)
	if _, ok := do.Body[0].(*IfStmt).Then[0].(*ExitStmt); !ok {
		t.Error("exit not parsed")
	}
	if _, ok := do.Body[1].(*IfStmt).Then[0].(*CycleStmt); !ok {
		t.Error("cycle not parsed")
	}
	if _, ok := do.Body[2].(*ContinueStmt); !ok {
		t.Error("continue not parsed")
	}
	if _, ok := f.Program().Body[1].(*StopStmt); !ok {
		t.Error("stop not parsed")
	}
}
