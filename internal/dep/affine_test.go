package dep

import (
	"testing"

	"repro/internal/ftn"
)

func parseExpr(t *testing.T, src string) ftn.Expr {
	t.Helper()
	f, err := ftn.Parse("program p\nx = " + src + "\nend program p\n")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return f.Program().Body[0].(*ftn.AssignStmt).RHS
}

func TestFromExprAffine(t *testing.T) {
	env := &Env{
		LoopVars: map[string]bool{"i": true, "j": true},
		Consts:   map[string]int64{"np": 4},
	}
	cases := []struct {
		src  string
		want string
		ok   bool
	}{
		{"i", "1*i", true},
		{"i + 1", "1*i + 1", true},
		{"2*i - j + 3", "2*i + -1*j + 3", true},
		{"np*i", "4*i", true},
		{"i*np + j", "4*i + 1*j", true},
		{"(i + j)*2", "2*i + 2*j", true},
		{"i - i", "0", true},
		{"-i", "-1*i", true},
		{"n + i", "1*i + 1*n", true}, // n symbolic
		{"6*i/2", "3*i", true},       // exact division
		{"i/2", "", false},           // inexact division
		{"i*j", "", false},           // bilinear
		{"mod(i, 4)", "", false},     // intrinsic call
		{"2**3 + i", "1*i + 8", true},
		{"7/2", "3", true},
	}
	for _, c := range cases {
		a, ok := FromExpr(parseExpr(t, c.src), env)
		if ok != c.ok {
			t.Errorf("FromExpr(%q) ok = %v, want %v", c.src, ok, c.ok)
			continue
		}
		if ok && a.String() != c.want {
			t.Errorf("FromExpr(%q) = %q, want %q", c.src, a.String(), c.want)
		}
	}
}

func TestAffineArithmetic(t *testing.T) {
	a := Var("i").Scale(2).Add(NewAffine(3)) // 2i + 3
	b := Var("i").Add(Var("j"))              // i + j
	sum := a.Add(b)
	if got := sum.String(); got != "3*i + 1*j + 3" {
		t.Errorf("sum = %q", got)
	}
	diff := a.Sub(a)
	if !diff.IsConst() || diff.Const != 0 {
		t.Errorf("a - a = %v", diff)
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone not equal")
	}
}

func TestAffineBindAndEval(t *testing.T) {
	a := NewAffine(1)
	a.Syms = map[string]int64{"nx": 2}
	a = a.Add(Var("i"))
	b := a.Bind(map[string]int64{"nx": 10})
	if len(b.Syms) > 0 {
		t.Errorf("bind left syms: %v", b)
	}
	if b.Const != 21 {
		t.Errorf("bind const = %d, want 21", b.Const)
	}
	v, ok := b.Eval(map[string]int64{"i": 5})
	if !ok || v != 26 {
		t.Errorf("eval = %d,%v want 26,true", v, ok)
	}
	if _, ok := a.Eval(map[string]int64{"i": 5}); ok {
		t.Error("eval with unbound symbol should fail")
	}
}

func TestAffineRename(t *testing.T) {
	a := Var("i").Add(Var("j").Scale(2))
	r := a.Rename(func(v string) string { return v + "'" })
	if r.CoefOf("i'") != 1 || r.CoefOf("j'") != 2 || r.CoefOf("i") != 0 {
		t.Errorf("rename = %v", r)
	}
}

func TestSystemSolveBasics(t *testing.T) {
	// x >= 0, x <= 5, x == 3: feasible.
	s := &System{}
	s.AddGE(Var("x"))
	s.AddGE(NewAffine(5).Sub(Var("x")))
	s.AddEq(Var("x").Sub(NewAffine(3)))
	if got := s.Solve(); got != Feasible {
		t.Errorf("solve = %v, want feasible", got)
	}
	// x >= 4, x <= 2: infeasible.
	s2 := &System{}
	s2.AddGE(Var("x").Sub(NewAffine(4)))
	s2.AddGE(NewAffine(2).Sub(Var("x")))
	if got := s2.Solve(); got != Infeasible {
		t.Errorf("solve = %v, want infeasible", got)
	}
	// 2x == 1: no integer solution (GCD test).
	s3 := &System{}
	s3.AddEq(Var("x").Scale(2).Sub(NewAffine(1)))
	if got := s3.Solve(); got != Infeasible {
		t.Errorf("solve 2x=1 = %v, want infeasible", got)
	}
	// 2x == 4 with 0 <= x <= 5: feasible.
	s4 := &System{}
	s4.AddEq(Var("x").Scale(2).Sub(NewAffine(4)))
	s4.AddGE(Var("x"))
	s4.AddGE(NewAffine(5).Sub(Var("x")))
	if got := s4.Solve(); got == Infeasible {
		t.Errorf("solve 2x=4 = %v, want not infeasible", got)
	}
}

func TestSystemTwoVariables(t *testing.T) {
	// i - j == 0, 1 <= i <= 10, 11 <= j <= 20: infeasible.
	s := &System{}
	s.AddEq(Var("i").Sub(Var("j")))
	s.AddGE(Var("i").Sub(NewAffine(1)))
	s.AddGE(NewAffine(10).Sub(Var("i")))
	s.AddGE(Var("j").Sub(NewAffine(11)))
	s.AddGE(NewAffine(20).Sub(Var("j")))
	if got := s.Solve(); got != Infeasible {
		t.Errorf("solve = %v, want infeasible", got)
	}
	// Same but j in 5..20: feasible (i = j in 5..10).
	s2 := &System{}
	s2.AddEq(Var("i").Sub(Var("j")))
	s2.AddGE(Var("i").Sub(NewAffine(1)))
	s2.AddGE(NewAffine(10).Sub(Var("i")))
	s2.AddGE(Var("j").Sub(NewAffine(5)))
	s2.AddGE(NewAffine(20).Sub(Var("j")))
	if got := s2.Solve(); got != Feasible {
		t.Errorf("solve = %v, want feasible", got)
	}
}

func TestSystemUnboundedSymbol(t *testing.T) {
	// i == n (n unknown symbol), 1 <= i <= 10: feasible (n could be 5);
	// the solver must not claim infeasibility through an unbounded symbol.
	a := Var("i")
	n := NewAffine(0)
	n.Syms = map[string]int64{"n": 1}
	s := &System{}
	s.AddEq(a.Sub(n))
	s.AddGE(Var("i").Sub(NewAffine(1)))
	s.AddGE(NewAffine(10).Sub(Var("i")))
	if got := s.Solve(); got == Infeasible {
		t.Errorf("solve = %v, want not infeasible", got)
	}
}

func TestIntPowEdges(t *testing.T) {
	cases := []struct {
		x, y, want int64
		ok         bool
	}{
		{2, 62, 1 << 62, true},
		{2, 63, 0, false},
		{-2, 63, -(1 << 63), true},
		{-2, 64, 0, false},
		{3, 39, 4052555153018976267, true},
		{3, 40, 0, false},
		{0, 0, 1, true},
		{0, 1 << 62, 0, true},
		{1, 1 << 62, 1, true},
		{-1, 1<<62 + 1, -1, true},
		{-1, 1 << 62, 1, true},
		{2, -1, 0, false},
		{2, 3000000000, 0, false},
		{2, 1 << 62, 0, false},
		{-(1 << 63), 1, -(1 << 63), true},
		{-(1 << 63), 2, 0, false},
		{3037000500, 2, 0, false}, // just above √(2⁶³)
		{3037000499, 2, 9223372030926249001, true},
	}
	for _, c := range cases {
		got, ok := IntPow(c.x, c.y)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("IntPow(%d, %d) = %d,%v want %d,%v", c.x, c.y, got, ok, c.want, c.ok)
		}
	}
	// FromExpr folds constant powers through IntPow: an overflowing one is
	// not affine (and is decided in a handful of steps, not 2⁶² of them).
	env := &Env{LoopVars: map[string]bool{}, Consts: map[string]int64{}}
	if a, ok := FromExpr(parseExpr(t, "2**(2**62) + 1"), env); ok {
		t.Errorf("FromExpr(2**(2**62) + 1) = %v, want not affine", a)
	}
	if a, ok := FromExpr(parseExpr(t, "2**5 + 1"), env); !ok || !a.IsConst() || a.Const != 33 {
		t.Errorf("FromExpr(2**5 + 1) = %v,%v want 33", a, ok)
	}
}
