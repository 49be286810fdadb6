package dep

import (
	"math/big"
	"testing"
)

// fuzzBound is the box every fuzzed variable lives in: [-fuzzBound, fuzzBound].
const fuzzBound = 6

// decodeSystem reads a small system from fuzz input: a variable count
// (1–4, each boxed to ±fuzzBound), then up to four constraints of one flag
// byte (odd: equality) and two bytes per coefficient and for the constant.
// A value is a digit in [-4, 4], shifted left by up to 60 bits when its
// second byte is ≥ 192, so magnitudes reach 2⁶² and the solver's
// overflow guards are in play.
func decodeSystem(data []byte) (*System, []string) {
	if len(data) == 0 {
		return nil, nil
	}
	names := []string{"w", "x", "y", "z"}[:1+int(data[0])%4]
	data = data[1:]
	s := &System{}
	for _, v := range names {
		s.AddGE(Var(v).Add(NewAffine(fuzzBound)))
		s.AddLE(Var(v).Sub(NewAffine(fuzzBound)))
	}
	value := func(b0, b1 byte) int64 {
		v := int64(int8(b0)) % 5
		if b1 >= 192 {
			v <<= b1 % 61
		}
		return v
	}
	width := 1 + 2*(len(names)+1)
	for c := 0; c < 4 && len(data) >= width; c++ {
		a := NewAffine(0)
		for i, v := range names {
			if k := value(data[1+2*i], data[2+2*i]); k != 0 {
				a.Coef[v] = k
			}
		}
		a.Const = value(data[width-2], data[width-1])
		if data[0]%2 == 1 {
			s.AddEq(a)
		} else {
			s.AddGE(a)
		}
		data = data[width:]
	}
	return s, names
}

// boxPoint reports whether some integer point of the box satisfies every
// constraint, evaluating in math/big so the oracle itself cannot wrap.
func boxPoint(s *System, names []string) bool {
	point := make(map[string]*big.Int, len(names))
	for _, v := range names {
		point[v] = new(big.Int)
	}
	total, term := new(big.Int), new(big.Int)
	holds := func() bool {
		for i, a := range s.cons {
			total.SetInt64(a.Const)
			for v, k := range a.Coef {
				total.Add(total, term.Mul(term.SetInt64(k), point[v]))
			}
			if s.eq[i] && total.Sign() != 0 || !s.eq[i] && total.Sign() < 0 {
				return false
			}
		}
		return true
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(names) {
			return holds()
		}
		for x := int64(-fuzzBound); x <= fuzzBound; x++ {
			point[names[i]].SetInt64(x)
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// FuzzSolve: on small boxed systems with coefficients up to 2⁶² the solver
// is sound — Infeasible only when no integer point of the box satisfies the
// system, Feasible only when one does. The committed corpus
// (testdata/fuzz/FuzzSolve) holds the substitution-overflow system.
func FuzzSolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, names := decodeSystem(data)
		if s == nil {
			return
		}
		got := s.Solve()
		if got == Unknown {
			return
		}
		if want := boxPoint(s, names); want != (got == Feasible) {
			t.Fatalf("system %v: solver %v, box point exists: %v", s.cons, got, want)
		}
	})
}
