// Package dep implements the data-dependence analysis the Compuniformer
// relies on: affine subscript extraction, the GCD and Banerjee disproof
// tests, an exact Fourier–Motzkin integer solver (the role the Omega test
// plays in the paper), dependence direction vectors, and loop-interchange
// legality.
//
// Every question about a (source, sink) reference pair — Depends,
// DirectionVectors and through them HasOutputDepAfter and InterchangeLegal —
// builds that pair's system once: both copies' iteration-space rows and the
// subscript equalities, as dense int64 rows over the pair's variables by
// index (the pair's symbols, then each copy's loop index and iteration
// counter per level). Each direction vector asked about appends at most one
// row per common level to a copy of it and solves; nothing outlives the
// call. The solver normalizes equalities (GCD test), substitutes
// unit-coefficient variables, then runs Fourier–Motzkin with a dark-shadow
// exactness flag. It answers Unknown — never a guess — when a row it would
// multiply exceeds coefLimit (2³⁰), in substitution and elimination alike,
// or when elimination passes 4 000 rows.
package dep

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ftn"
)

// Affine is a linear form  Const + Σ Coef[v]·v + Σ Syms[s]·s  where v ranges
// over loop index variables and s over loop-invariant symbolic names whose
// values are unknown at analysis time.
type Affine struct {
	Const int64
	Coef  map[string]int64 // loop variable -> coefficient
	Syms  map[string]int64 // symbolic invariant -> coefficient
}

// NewAffine returns the affine form equal to the constant c.
func NewAffine(c int64) Affine {
	return Affine{Const: c, Coef: map[string]int64{}, Syms: map[string]int64{}}
}

// Var returns the affine form equal to the single loop variable v.
func Var(v string) Affine {
	a := NewAffine(0)
	a.Coef[v] = 1
	return a
}

// Clone deep-copies a.
func (a Affine) Clone() Affine {
	c := Affine{Const: a.Const, Coef: make(map[string]int64, len(a.Coef)), Syms: make(map[string]int64, len(a.Syms))}
	for k, v := range a.Coef {
		c.Coef[k] = v
	}
	for k, v := range a.Syms {
		c.Syms[k] = v
	}
	return c
}

// Add returns a + b.
func (a Affine) Add(b Affine) Affine {
	c := a.Clone()
	c.Const += b.Const
	for k, v := range b.Coef {
		c.Coef[k] += v
		if c.Coef[k] == 0 {
			delete(c.Coef, k)
		}
	}
	for k, v := range b.Syms {
		c.Syms[k] += v
		if c.Syms[k] == 0 {
			delete(c.Syms, k)
		}
	}
	return c
}

// Sub returns a - b.
func (a Affine) Sub(b Affine) Affine { return a.Add(b.Scale(-1)) }

// Scale returns k·a.
func (a Affine) Scale(k int64) Affine {
	c := NewAffine(a.Const * k)
	if k == 0 {
		return c
	}
	for n, v := range a.Coef {
		c.Coef[n] = v * k
	}
	for n, v := range a.Syms {
		c.Syms[n] = v * k
	}
	return c
}

// IsConst reports whether a has no variable or symbolic part.
func (a Affine) IsConst() bool { return len(a.Coef) == 0 && len(a.Syms) == 0 }

// ConstVal returns the constant value; valid only when IsConst.
func (a Affine) ConstVal() int64 { return a.Const }

// Vars returns the loop variables with nonzero coefficients, sorted.
func (a Affine) Vars() []string {
	out := make([]string, 0, len(a.Coef))
	for v := range a.Coef {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// CoefOf returns the coefficient of loop variable v (0 if absent).
func (a Affine) CoefOf(v string) int64 { return a.Coef[v] }

// Bind substitutes known integer values for symbolic names and returns the
// (possibly still symbolic) result.
func (a Affine) Bind(values map[string]int64) Affine {
	c := a.Clone()
	for s, coef := range a.Syms {
		if v, ok := values[s]; ok {
			c.Const += coef * v
			delete(c.Syms, s)
		}
	}
	return c
}

// Equal reports structural equality.
func (a Affine) Equal(b Affine) bool {
	d := a.Sub(b)
	return d.Const == 0 && len(d.Coef) == 0 && len(d.Syms) == 0
}

// String renders the form for diagnostics, with terms in sorted order.
func (a Affine) String() string {
	var parts []string
	for _, v := range a.Vars() {
		parts = append(parts, fmt.Sprintf("%d*%s", a.Coef[v], v))
	}
	syms := make([]string, 0, len(a.Syms))
	for s := range a.Syms {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for _, s := range syms {
		parts = append(parts, fmt.Sprintf("%d*%s", a.Syms[s], s))
	}
	if a.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", a.Const))
	}
	return strings.Join(parts, " + ")
}

// Eval evaluates the form under a full assignment of loop variables and
// symbols; the second result is false if any name is unbound.
func (a Affine) Eval(env map[string]int64) (int64, bool) {
	total := a.Const
	for v, coef := range a.Coef {
		val, ok := env[v]
		if !ok {
			return 0, false
		}
		total += coef * val
	}
	for s, coef := range a.Syms {
		val, ok := env[s]
		if !ok {
			return 0, false
		}
		total += coef * val
	}
	return total, true
}

// Env describes the extraction context: which names are loop index
// variables, and the known integer values of named constants.
type Env struct {
	LoopVars map[string]bool
	Consts   map[string]int64
}

// FromExpr converts a Fortran expression to affine form. The second result
// is false when the expression is not affine in the loop variables (e.g. it
// multiplies two variables, divides by a variable, or calls a function).
func FromExpr(e ftn.Expr, env *Env) (Affine, bool) {
	switch e := e.(type) {
	case *ftn.IntLit:
		return NewAffine(e.Value), true
	case *ftn.Ident:
		if v, ok := env.Consts[e.Name]; ok {
			return NewAffine(v), true
		}
		if env.LoopVars[e.Name] {
			return Var(e.Name), true
		}
		// Loop-invariant symbol.
		a := NewAffine(0)
		a.Syms = map[string]int64{e.Name: 1}
		return a, true
	case *ftn.Unary:
		if e.Op != "-" && e.Op != "+" {
			return Affine{}, false
		}
		x, ok := FromExpr(e.X, env)
		if !ok {
			return Affine{}, false
		}
		if e.Op == "-" {
			return x.Scale(-1), true
		}
		return x, true
	case *ftn.Binary:
		x, okx := FromExpr(e.X, env)
		y, oky := FromExpr(e.Y, env)
		if !okx || !oky {
			return Affine{}, false
		}
		switch e.Op {
		case "+":
			return x.Add(y), true
		case "-":
			return x.Sub(y), true
		case "*":
			if x.IsConst() {
				return y.Scale(x.Const), true
			}
			if y.IsConst() {
				return x.Scale(y.Const), true
			}
			return Affine{}, false
		case "/":
			// Only exact constant division stays affine.
			if x.IsConst() && y.IsConst() && y.Const != 0 {
				return NewAffine(x.Const / y.Const), true
			}
			if y.IsConst() && y.Const != 0 && divisibleBy(x, y.Const) {
				return scaleDiv(x, y.Const), true
			}
			return Affine{}, false
		case "**":
			if x.IsConst() && y.IsConst() {
				if p, ok := IntPow(x.Const, y.Const); ok {
					return NewAffine(p), true
				}
			}
			return Affine{}, false
		}
		return Affine{}, false
	}
	return Affine{}, false
}

func divisibleBy(a Affine, k int64) bool {
	if a.Const%k != 0 {
		return false
	}
	for _, v := range a.Coef {
		if v%k != 0 {
			return false
		}
	}
	for _, v := range a.Syms {
		if v%k != 0 {
			return false
		}
	}
	return true
}

func scaleDiv(a Affine, k int64) Affine {
	c := a.Clone()
	c.Const /= k
	for n := range c.Coef {
		c.Coef[n] /= k
	}
	for n := range c.Syms {
		c.Syms[n] /= k
	}
	return c
}

// IntPow is x**y by squaring: at most 63 steps whatever y is, where y
// multiplications let one declaration (2**3000000000) stall every analysis.
// ok is false for a negative exponent or a result outside int64.
func IntPow(x, y int64) (int64, bool) {
	if y < 0 {
		return 0, false
	}
	r := int64(1)
	for {
		if y&1 == 1 {
			p := r * x
			if x != 0 && p/x != r {
				return 0, false
			}
			r = p
		}
		y >>= 1
		if y == 0 {
			return r, true
		}
		// A factor x² is still owed, so if it overflows the result does too
		// (|x| ≥ 2 here: 0, 1 and -1 square to themselves or to 1).
		sq := x * x
		if x != 0 && sq/x != x {
			return 0, false
		}
		x = sq
	}
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
