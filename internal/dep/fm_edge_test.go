package dep

import (
	"testing"

	"repro/internal/ftn"
)

// sym returns the affine form of a loop-invariant symbol.
func sym(name string) Affine {
	a := NewAffine(0)
	a.Syms = map[string]int64{name: 1}
	return a
}

// TestSolveDegenerateBounds: zero-trip and single-point iteration spaces —
// the loop-bound shapes the transformation's leftover algebra produces.
func TestSolveDegenerateBounds(t *testing.T) {
	// Empty space: 1 ≤ v ≤ 0 has no integer point.
	s := &System{}
	s.AddGE(Var("v").Sub(NewAffine(1)))
	s.AddLE(Var("v"))
	if got := s.Solve(); got != Infeasible {
		t.Errorf("1 ≤ v ≤ 0: %v, want infeasible", got)
	}

	// Single-point space: 5 ≤ v ≤ 5 is exactly one iteration.
	s = &System{}
	s.AddGE(Var("v").Sub(NewAffine(5)))
	s.AddLE(Var("v").Sub(NewAffine(5)))
	if got := s.Solve(); got != Feasible {
		t.Errorf("5 ≤ v ≤ 5: %v, want feasible", got)
	}

	// Symbolically empty space: n+1 ≤ v ≤ n is empty for every n — the
	// symbol cancels, so the solver must prove it even unbounded.
	s = &System{}
	s.AddGE(Var("v").Sub(sym("n")).Sub(NewAffine(1)))
	s.AddLE(Var("v").Sub(sym("n")))
	if got := s.Solve(); got != Infeasible {
		t.Errorf("n+1 ≤ v ≤ n: %v, want infeasible", got)
	}

	// Symbolically single-point: n ≤ v ≤ n always holds for v = n.
	s = &System{}
	s.AddGE(Var("v").Sub(sym("n")))
	s.AddLE(Var("v").Sub(sym("n")))
	if got := s.Solve(); got != Feasible {
		t.Errorf("n ≤ v ≤ n: %v, want feasible", got)
	}
}

// TestSymbolicOnlySubscripts: subscripts with no loop variable at all —
// pure symbols must stay conservative (never proven unequal without
// constraints) yet decisive when they cancel.
func TestSymbolicOnlySubscripts(t *testing.T) {
	env := &Env{LoopVars: map[string]bool{}, Consts: map[string]int64{}}
	nPlus1, ok := FromExpr(&ftn.Binary{X: &ftn.Ident{Name: "n"}, Op: "+", Y: &ftn.IntLit{Value: 1}}, env)
	if !ok || len(nPlus1.Syms) == 0 {
		t.Fatalf("n+1 did not convert to a symbolic affine form: %v ok=%v", nPlus1, ok)
	}
	n, _ := FromExpr(&ftn.Ident{Name: "n"}, env)
	m, _ := FromExpr(&ftn.Ident{Name: "m"}, env)

	// a(n+1) vs a(n): the symbol cancels, the subscripts provably differ.
	s := &System{}
	s.AddEq(nPlus1.Sub(n))
	if got := s.Solve(); got != Infeasible {
		t.Errorf("n+1 == n: %v, want infeasible", got)
	}

	// a(n+1) vs a(m): independent symbols may collide; claiming otherwise
	// would be unsound.
	s = &System{}
	s.AddEq(nPlus1.Sub(m))
	if got := s.Solve(); got == Infeasible {
		t.Errorf("n+1 == m: %v; independent symbols can be equal", got)
	}

	// Non-affine symbolic subscripts (n*m) must be rejected at conversion,
	// not silently linearized.
	if _, ok := FromExpr(&ftn.Binary{X: &ftn.Ident{Name: "n"}, Op: "*", Y: &ftn.Ident{Name: "m"}}, env); ok {
		t.Error("n*m converted as affine")
	}
	// Division by a symbol is likewise not affine.
	if _, ok := FromExpr(&ftn.Binary{X: &ftn.Ident{Name: "n"}, Op: "/", Y: &ftn.Ident{Name: "m"}}, env); ok {
		t.Error("n/m converted as affine")
	}
}

// TestSolveCoefficientOverflowGuard: rows whose coefficients could overflow
// int64 during elimination degrade to Unknown (conservative) instead of
// deciding from wrapped arithmetic.
func TestSolveCoefficientOverflowGuard(t *testing.T) {
	big := int64(1) << 40

	// Two-sided bounds with coprime huge coefficients force a combine; the
	// guard must refuse rather than multiply 2⁴⁰-scale numbers.
	s := &System{}
	s.AddGE(Var("x").Scale(big).Sub(NewAffine(1)))
	s.AddGE(NewAffine(big + 3).Sub(Var("x").Scale(big + 1)))
	if got := s.Solve(); got != Unknown {
		t.Errorf("huge-coefficient system: %v, want unknown (overflow guard)", got)
	}

	// At the limit the solver still decides: coefLimit·x ≥ coefLimit with
	// x ≤ 0 is a unit-coefficient elimination, exact and infeasible.
	s = &System{}
	s.AddGE(Var("x").Scale(coefLimit).Sub(NewAffine(coefLimit)))
	s.AddLE(Var("x"))
	if got := s.Solve(); got != Infeasible {
		t.Errorf("coefLimit·x ≥ coefLimit ∧ x ≤ 0: %v, want infeasible", got)
	}
}

// TestSolveEmptyBoundsViaEquality: a degenerate equality chain — the whole
// space pinned to constants that contradict an inequality.
func TestSolveEmptyBoundsViaEquality(t *testing.T) {
	s := &System{}
	s.AddEq(Var("v").Sub(NewAffine(7))) // v == 7
	s.AddGE(NewAffine(6).Sub(Var("v"))) // v ≤ 6
	if got := s.Solve(); got != Infeasible {
		t.Errorf("v == 7 ∧ v ≤ 6: %v, want infeasible", got)
	}
}

// TestSolveSubstitutionOverflowGuard: equality substitution multiplies
// coefficients just as an elimination round does, so it refuses the same
// magnitudes. {i − 2⁴⁰·j = 0, 2⁴⁰·i − 1 ≥ 0, j − 1 ≥ 0} is feasible (j = 1,
// i = 2⁴⁰); substituting i would form 2⁸⁰·j, which wraps to 0 and "proves"
// −1 ≥ 0 — an Infeasible that would mark a reference safe to pre-push.
func TestSolveSubstitutionOverflowGuard(t *testing.T) {
	big := int64(1) << 40
	s := &System{}
	s.AddEq(Var("i").Sub(Var("j").Scale(big)))
	s.AddGE(Var("i").Scale(big).Sub(NewAffine(1)))
	s.AddGE(Var("j").Sub(NewAffine(1)))
	if got := s.Solve(); got != Unknown {
		t.Errorf("i = 2⁴⁰·j ∧ 2⁴⁰·i ≥ 1 ∧ j ≥ 1: %v, want unknown (overflow guard)", got)
	}
}
