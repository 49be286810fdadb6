package dep

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// brute checks integer feasibility of a system over a small box by
// enumeration; variables are taken from the system, bounded to [-B, B].
func bruteFeasible(s *System, bound int64) bool {
	var vars []string
	for _, a := range s.cons {
		vars = appendNew(vars, a.Coef)
		for sym, k := range a.Syms {
			if k != 0 && !contains(vars, "$"+sym) {
				vars = append(vars, "$"+sym)
			}
		}
	}
	assign := map[string]int64{}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			for j, a := range s.cons {
				total := a.Const
				for v, k := range a.Coef {
					total += k * assign[v]
				}
				for sym, k := range a.Syms {
					total += k * assign["$"+sym]
				}
				if s.eq[j] && total != 0 {
					return false
				}
				if !s.eq[j] && total < 0 {
					return false
				}
			}
			return true
		}
		for v := -bound; v <= bound; v++ {
			assign[vars[i]] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// randSystem builds a random small system with box bounds so the oracle
// and the solver see the same problem.
func randSystem(r *rand.Rand, nVars int, bound int64) *System {
	names := []string{"x", "y", "z"}
	s := &System{}
	// Box constraints keep everything bounded for the oracle.
	for i := 0; i < nVars; i++ {
		v := Var(names[i])
		s.AddGE(v.Add(NewAffine(bound)))             // v >= -bound
		s.AddGE(NewAffine(bound).Sub(Var(names[i]))) // v <= bound
	}
	nCons := 1 + r.Intn(3)
	for c := 0; c < nCons; c++ {
		a := NewAffine(int64(r.Intn(9) - 4))
		for i := 0; i < nVars; i++ {
			coef := int64(r.Intn(5) - 2)
			if coef != 0 {
				a.Coef[names[i]] = coef
			}
		}
		if r.Intn(3) == 0 {
			s.AddEq(a)
		} else {
			s.AddGE(a)
		}
	}
	return s
}

func TestQuickSolveMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1991)) // the Omega test's year
	check := func() bool {
		nVars := 1 + r.Intn(3)
		const bound = 4
		s := randSystem(r, nVars, bound)
		want := bruteFeasible(s.Clone(), bound)
		got := s.Solve()
		if want && got == Infeasible {
			t.Logf("UNSOUND: brute feasible, solver infeasible: %+v", s.cons)
			return false
		}
		if !want && got == Feasible {
			t.Logf("UNSOUND: brute infeasible, solver feasible: %+v", s.cons)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveEqualityChains(t *testing.T) {
	// x = y, y = z, z = 5, 0 <= x <= 3: infeasible (x would be 5).
	s := &System{}
	s.AddEq(Var("x").Sub(Var("y")))
	s.AddEq(Var("y").Sub(Var("z")))
	s.AddEq(Var("z").Sub(NewAffine(5)))
	s.AddGE(Var("x"))
	s.AddGE(NewAffine(3).Sub(Var("x")))
	if got := s.Solve(); got != Infeasible {
		t.Errorf("solve = %v, want infeasible", got)
	}
	// Same with x <= 7: feasible.
	s2 := &System{}
	s2.AddEq(Var("x").Sub(Var("y")))
	s2.AddEq(Var("y").Sub(Var("z")))
	s2.AddEq(Var("z").Sub(NewAffine(5)))
	s2.AddGE(Var("x"))
	s2.AddGE(NewAffine(7).Sub(Var("x")))
	if got := s2.Solve(); got != Feasible {
		t.Errorf("solve = %v, want feasible", got)
	}
}

func TestSolveEmptySystem(t *testing.T) {
	s := &System{}
	if got := s.Solve(); got != Feasible {
		t.Errorf("empty system = %v, want feasible", got)
	}
}

func TestSolveContradictoryConstants(t *testing.T) {
	s := &System{}
	s.AddGE(NewAffine(-1)) // -1 >= 0
	if got := s.Solve(); got != Infeasible {
		t.Errorf("solve = %v, want infeasible", got)
	}
	s2 := &System{}
	s2.AddEq(NewAffine(3)) // 3 == 0
	if got := s2.Solve(); got != Infeasible {
		t.Errorf("solve = %v, want infeasible", got)
	}
}

func TestSolveNonUnitEqualityGCD(t *testing.T) {
	// 4x - 6y = 1: gcd 2 does not divide 1.
	s := &System{}
	a := Var("x").Scale(4).Sub(Var("y").Scale(6)).Sub(NewAffine(1))
	s.AddEq(a)
	if got := s.Solve(); got != Infeasible {
		t.Errorf("solve = %v, want infeasible (GCD)", got)
	}
}

func TestSolveLargeCoefficientInequalities(t *testing.T) {
	// 3x >= 7, 3x <= 8: rational solution (7/3..8/3) but no integer one.
	// Real-shadow FM cannot prove infeasibility here; the answer must not
	// be Feasible (Unknown is the honest outcome).
	s := &System{}
	s.AddGE(Var("x").Scale(3).Sub(NewAffine(7)))
	s.AddGE(NewAffine(8).Sub(Var("x").Scale(3)))
	if got := s.Solve(); got == Feasible {
		t.Errorf("solve = %v; claiming a nonexistent integer point is unsound", got)
	}
}

func TestConstraintString(t *testing.T) {
	c := Constraint{Terms: []LinTerm{{Var: "x", Coef: 2}}, Const: -3, Eq: true}
	if got := c.String(); got != "2*x + -3 == 0" {
		t.Errorf("string = %q", got)
	}
}

// reference rebuilds s on the string-keyed reference solver.
func (s *System) reference() *refSystem {
	ref := &refSystem{}
	for i, a := range s.cons {
		ref.add(a, s.eq[i])
	}
	return ref
}

// TestQuickSolveMatchesReference: on random systems — unit and non-unit
// coefficients, symbols, equalities — the row solver gives the reference
// solver's answer exactly, Unknowns included: same substitutions, same
// elimination order, same exactness.
func TestQuickSolveMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	names := []string{"x", "y", "z", "w"}
	for n := 0; n < 3000; n++ {
		s := &System{}
		nVars := 1 + r.Intn(4)
		for i := 0; i < nVars; i++ {
			if r.Intn(4) > 0 {
				s.AddGE(Var(names[i]).Add(NewAffine(int64(r.Intn(8)))))
				s.AddLE(Var(names[i]).Sub(NewAffine(int64(r.Intn(8)))))
			}
		}
		for c := 1 + r.Intn(4); c > 0; c-- {
			a := NewAffine(int64(r.Intn(11) - 5))
			for i := 0; i < nVars; i++ {
				if k := int64(r.Intn(9) - 4); k != 0 {
					a.Coef[names[i]] = k
				}
			}
			if r.Intn(3) == 0 {
				a = a.Add(sym(names[r.Intn(2)]).Scale(int64(1 + r.Intn(2))))
			}
			if r.Intn(2) == 0 {
				s.AddEq(a)
			} else {
				s.AddGE(a)
			}
		}
		if got, want := s.Solve(), s.reference().Solve(); got != want {
			t.Fatalf("system %v: rows %v, reference %v", s.cons, got, want)
		}
	}
}
