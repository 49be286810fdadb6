package dep

// The string-keyed Fourier–Motzkin solver and pair-system builder this
// package used before its systems became dense rows, kept verbatim (renamed
// where a name is still taken) as the reference the differential tests hold
// the row solver to. It shares gcd, floorDiv, coefLimit and CommonDepth with
// the product code.

import (
	"fmt"
	"sort"
	"strings"
)

// Rename returns a with every loop variable v replaced by rename(v).
func (a Affine) Rename(rename func(string) string) Affine {
	c := NewAffine(a.Const)
	for v, coef := range a.Coef {
		c.Coef[rename(v)] += coef
	}
	for s, coef := range a.Syms {
		c.Syms[s] = coef
	}
	return c
}

// LinTerm is one variable's coefficient in a constraint row.
type LinTerm struct {
	Var  string
	Coef int64
}

// Constraint is  Σ coef·var + Const  (= 0 | ≥ 0).
type Constraint struct {
	Terms []LinTerm
	Const int64
	Eq    bool // true: equality; false: ≥ 0
}

func (c Constraint) String() string {
	var sb strings.Builder
	for i, t := range c.Terms {
		if i > 0 {
			sb.WriteString(" + ")
		}
		fmt.Fprintf(&sb, "%d*%s", t.Coef, t.Var)
	}
	if len(c.Terms) == 0 {
		sb.WriteString("0")
	}
	fmt.Fprintf(&sb, " + %d", c.Const)
	if c.Eq {
		sb.WriteString(" == 0")
	} else {
		sb.WriteString(" >= 0")
	}
	return sb.String()
}

// coefOf returns the coefficient of v in c.
func (c Constraint) coefOf(v string) int64 {
	for _, t := range c.Terms {
		if t.Var == v {
			return t.Coef
		}
	}
	return 0
}

// withoutVar returns c's terms minus variable v.
func (c Constraint) withoutVar(v string) []LinTerm {
	out := make([]LinTerm, 0, len(c.Terms))
	for _, t := range c.Terms {
		if t.Var != v {
			out = append(out, t)
		}
	}
	return out
}

// refSystem is a conjunction of integer linear constraints.
type refSystem struct {
	Cons []Constraint
}

// AddEq adds the equality a = 0 over the system's variables.
func (s *refSystem) AddEq(a Affine) { s.add(a, true) }

// AddGE adds the inequality a ≥ 0.
func (s *refSystem) AddGE(a Affine) { s.add(a, false) }

// AddLE adds a ≤ 0 (i.e. -a ≥ 0).
func (s *refSystem) AddLE(a Affine) { s.add(a.Scale(-1), false) }

// add converts an affine form to a constraint row. Symbolic terms are kept
// as ordinary variables (they become unbounded unknowns, which keeps the
// solver conservative: it can never prove infeasibility via an unbounded
// symbol unless the symbol cancels).
func (s *refSystem) add(a Affine, eq bool) {
	c := Constraint{Const: a.Const, Eq: eq}
	for _, v := range a.Vars() {
		c.Terms = append(c.Terms, LinTerm{Var: v, Coef: a.Coef[v]})
	}
	syms := make([]string, 0, len(a.Syms))
	for sym := range a.Syms {
		syms = append(syms, sym)
	}
	sort.Strings(syms)
	for _, sym := range syms {
		c.Terms = append(c.Terms, LinTerm{Var: "$" + sym, Coef: a.Syms[sym]})
	}
	s.Cons = append(s.Cons, c)
}

// Clone deep-copies the system.
func (s *refSystem) Clone() *refSystem {
	c := &refSystem{Cons: make([]Constraint, len(s.Cons))}
	for i, con := range s.Cons {
		c.Cons[i] = Constraint{Terms: append([]LinTerm(nil), con.Terms...), Const: con.Const, Eq: con.Eq}
	}
	return c
}

// vars returns all variables mentioned, sorted.
func (s *refSystem) vars() []string {
	set := map[string]bool{}
	for _, c := range s.Cons {
		for _, t := range c.Terms {
			if t.Coef != 0 {
				set[t.Var] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Solve decides integer feasibility of the system using equality
// normalization followed by Fourier–Motzkin elimination with the dark-shadow
// integer refinement (the same technique family as the Omega test). It is
// exact (never returns Unknown) when all eliminations are unit-coefficient
// or dark-shadow exact, which covers the affine subscripts that occur in the
// paper's domain.
func (s *refSystem) Solve() Feasibility {
	sys := s.Clone()
	exact := true

	// Phase 1: eliminate equalities.
	for {
		progress := false
		for i := 0; i < len(sys.Cons); i++ {
			c := sys.Cons[i]
			if !c.Eq {
				continue
			}
			c = normalize(c)
			if len(c.Terms) == 0 {
				if c.Const != 0 {
					return Infeasible
				}
				sys.Cons = append(sys.Cons[:i], sys.Cons[i+1:]...)
				i--
				progress = true
				continue
			}
			// GCD test: gcd of coefficients must divide the constant.
			g := int64(0)
			for _, t := range c.Terms {
				g = gcd(g, t.Coef)
			}
			if g > 1 {
				if c.Const%g != 0 {
					return Infeasible
				}
				for j := range c.Terms {
					c.Terms[j].Coef /= g
				}
				c.Const /= g
			}
			// Substitute a unit-coefficient variable if there is one.
			idx := -1
			for j, t := range c.Terms {
				if t.Coef == 1 || t.Coef == -1 {
					idx = j
					break
				}
			}
			if idx < 0 {
				// No unit coefficient: leave the equality as a pair of
				// inequalities; mark inexact (FM may not be able to prove
				// integer feasibility).
				exact = false
				ge := Constraint{Terms: c.Terms, Const: c.Const, Eq: false}
				le := Constraint{Terms: negTerms(c.Terms), Const: -c.Const, Eq: false}
				sys.Cons[i] = ge
				sys.Cons = append(sys.Cons, le)
				progress = true
				continue
			}
			v := c.Terms[idx].Var
			coef := c.Terms[idx].Coef
			// v = -(rest + Const)/coef ; coef = ±1.
			rest := c.withoutVar(v)
			repl := replacement{terms: rest, constant: c.Const, negate: coef == 1}
			sys.Cons = append(sys.Cons[:i], sys.Cons[i+1:]...)
			substAll(sys, v, repl)
			progress = true
			i--
		}
		if !progress {
			break
		}
	}

	// Phase 2: Fourier–Motzkin elimination on inequalities.
	for {
		vars := sys.vars()
		if len(vars) == 0 {
			break
		}
		// Pick the variable with the fewest lower×upper combinations.
		best, bestCost := "", int(^uint(0)>>1)
		for _, v := range vars {
			lo, hi := 0, 0
			for _, c := range sys.Cons {
				switch k := c.coefOf(v); {
				case k > 0:
					lo++
				case k < 0:
					hi++
				}
			}
			cost := lo * hi
			if cost < bestCost {
				best, bestCost = v, cost
			}
		}
		v := best
		var lows, highs, rest []Constraint
		for _, c := range sys.Cons {
			switch k := c.coefOf(v); {
			case k > 0:
				lows = append(lows, c) // a·v ≥ L form: a·v + rest + const ≥ 0
			case k < 0:
				highs = append(highs, c)
			default:
				rest = append(rest, c)
			}
		}
		if len(lows) == 0 || len(highs) == 0 {
			// v unbounded on one side: all constraints involving v are
			// satisfiable by pushing v far enough; drop them.
			sys.Cons = rest
			continue
		}
		for _, lo := range lows {
			if maxAbsCoef(lo) > coefLimit {
				return Unknown
			}
			a := lo.coefOf(v)
			for _, hi := range highs {
				if maxAbsCoef(hi) > coefLimit {
					return Unknown
				}
				b := -hi.coefOf(v)
				// lo: a·v + Lrest ≥ 0  →  a·v ≥ -Lrest
				// hi: -b·v + Hrest ≥ 0 →  b·v ≤ Hrest
				// real shadow: b·(-Lrest) ≤ a·Hrest → a·Hrest + b·Lrest ≥ 0.
				comb := combine(lo, hi, b, a, v)
				// When a==1 or b==1 the real shadow is integer-exact; with
				// both coefficients > 1 it only bounds rational solutions,
				// so a Feasible outcome degrades to Unknown (Infeasible
				// stays sound: no rational solution means no integer one).
				if a > 1 && b > 1 {
					exact = false
				}
				comb = normalize(comb)
				if len(comb.Terms) == 0 && comb.Const < 0 {
					return Infeasible
				}
				if len(comb.Terms) > 0 || comb.Const < 0 {
					rest = append(rest, comb)
				}
			}
		}
		sys.Cons = rest
		if len(sys.Cons) > 4000 {
			// Constraint explosion guard; the dependence problems in our
			// domain never approach this.
			return Unknown
		}
	}

	// All variables eliminated: check residual constant constraints.
	for _, c := range sys.Cons {
		if c.Eq && c.Const != 0 {
			return Infeasible
		}
		if !c.Eq && c.Const < 0 {
			return Infeasible
		}
	}
	if exact {
		return Feasible
	}
	return Unknown
}

// maxAbsCoef returns the largest magnitude among a row's coefficients and
// constant.
func maxAbsCoef(c Constraint) int64 {
	m := c.Const
	if m < 0 {
		m = -m
	}
	for _, t := range c.Terms {
		k := t.Coef
		if k < 0 {
			k = -k
		}
		if k > m {
			m = k
		}
	}
	return m
}

// replacement is v := ±(terms + constant) used for equality substitution.
type replacement struct {
	terms    []LinTerm
	constant int64
	negate   bool // true when v had coefficient +1: v = -(rest+const)
}

func substAll(sys *refSystem, v string, r replacement) {
	sign := int64(1)
	if r.negate {
		sign = -1
	}
	for i := range sys.Cons {
		c := &sys.Cons[i]
		k := c.coefOf(v)
		if k == 0 {
			continue
		}
		terms := c.withoutVar(v)
		for _, t := range r.terms {
			terms = addTerm(terms, t.Var, sign*k*t.Coef)
		}
		c.Terms = terms
		c.Const += sign * k * r.constant
	}
}

func addTerm(terms []LinTerm, v string, coef int64) []LinTerm {
	if coef == 0 {
		return terms
	}
	for i := range terms {
		if terms[i].Var == v {
			terms[i].Coef += coef
			if terms[i].Coef == 0 {
				return append(terms[:i], terms[i+1:]...)
			}
			return terms
		}
	}
	return append(terms, LinTerm{Var: v, Coef: coef})
}

func negTerms(terms []LinTerm) []LinTerm {
	out := make([]LinTerm, len(terms))
	for i, t := range terms {
		out[i] = LinTerm{Var: t.Var, Coef: -t.Coef}
	}
	return out
}

// combine forms  mulLo·lo + mulHi·hi  with variable v eliminated.
func combine(lo, hi Constraint, mulLo, mulHi int64, v string) Constraint {
	var terms []LinTerm
	for _, t := range lo.Terms {
		if t.Var != v {
			terms = addTerm(terms, t.Var, mulLo*t.Coef)
		}
	}
	for _, t := range hi.Terms {
		if t.Var != v {
			terms = addTerm(terms, t.Var, mulHi*t.Coef)
		}
	}
	return Constraint{Terms: terms, Const: mulLo*lo.Const + mulHi*hi.Const}
}

// normalize divides an inequality by the gcd of its coefficients (floor on
// the constant, which is exact for integer constraints) and drops zero terms.
func normalize(c Constraint) Constraint {
	terms := make([]LinTerm, 0, len(c.Terms))
	for _, t := range c.Terms {
		if t.Coef != 0 {
			terms = append(terms, t)
		}
	}
	c.Terms = terms
	if len(terms) == 0 {
		return c
	}
	g := int64(0)
	for _, t := range terms {
		g = gcd(g, t.Coef)
	}
	if g > 1 {
		for i := range c.Terms {
			c.Terms[i].Coef /= g
		}
		if c.Eq {
			// Caller checks divisibility for equalities.
			if c.Const%g == 0 {
				c.Const /= g
			} else {
				// Leave as-is; the equality GCD test will catch it.
				for i := range c.Terms {
					c.Terms[i].Coef *= g
				}
				return c
			}
		} else {
			c.Const = floorDiv(c.Const, g)
		}
	}
	return c
}

// varName builds a solver variable name unique per (level, copy).
func varName(kind string, level, copy int) string {
	return fmt.Sprintf("%s%d#%d", kind, level, copy)
}

// addLoopConstraints adds, for one reference copy, the iteration-space
// constraints of its enclosing loops: v = lo + step·k, k ≥ 0 and the
// direction-appropriate upper bound. Shared (common-depth) loops of the two
// copies still get independent index variables; only the constraints tie
// them together.
func addLoopConstraints(sys *refSystem, r *Ref, copy int, ok *bool) {
	for lvl, lp := range r.Loops {
		if lp.Step == 0 {
			*ok = false
			return
		}
		iv := varName("i", lvl, copy)
		kv := varName("k", lvl, copy)
		// v - lo - step·k = 0, with v and k canonical names.
		eq := lp.Lo.Rename(renameOuter(r, lvl, copy)).Scale(-1)
		eq = eq.Add(Var(iv))
		kterm := Var(kv).Scale(lp.Step)
		eq = eq.Sub(kterm)
		sys.AddEq(eq)
		// k ≥ 0.
		sys.AddGE(Var(kv))
		// Terminal bound: step>0: hi - v ≥ 0 ; step<0: v - hi ≥ 0.
		hi := lp.Hi.Rename(renameOuter(r, lvl, copy))
		if lp.Step > 0 {
			sys.AddGE(hi.Sub(Var(iv)))
		} else {
			sys.AddGE(Var(iv).Sub(hi))
		}
	}
}

// renameOuter maps loop-variable names appearing in bounds of loop lvl to
// the canonical index variables of outer levels (triangular loops).
func renameOuter(r *Ref, lvl, copy int) func(string) string {
	return func(v string) string {
		for outer := 0; outer < lvl; outer++ {
			if r.Loops[outer].Var == v {
				return varName("i", outer, copy)
			}
		}
		// Not an enclosing loop variable: keep as a shared unknown.
		return "?" + v
	}
}

// renameSubs maps a subscript's loop variables to canonical index variables.
func renameSubs(r *Ref, copy int) func(string) string {
	return func(v string) string {
		for lvl := range r.Loops {
			if r.Loops[lvl].Var == v {
				return varName("i", lvl, copy)
			}
		}
		return "?" + v
	}
}

// refTestDirection decides whether a dependence from r1 (source) to r2 (sink)
// can exist under the given direction vector over their common loops.
// dirs may be shorter than the common depth; missing entries are DirStar.
func refTestDirection(r1, r2 *Ref, dirs []Direction) Feasibility {
	if r1.NonAffine || r2.NonAffine {
		return Unknown
	}
	if r1.Array != r2.Array || len(r1.Subs) != len(r2.Subs) {
		return Infeasible
	}
	sys := &refSystem{}
	ok := true
	addLoopConstraints(sys, r1, 1, &ok)
	addLoopConstraints(sys, r2, 2, &ok)
	if !ok {
		return Unknown
	}
	// Subscript equality per dimension.
	for d := range r1.Subs {
		s1 := r1.Subs[d].Rename(renameSubs(r1, 1))
		s2 := r2.Subs[d].Rename(renameSubs(r2, 2))
		sys.AddEq(s1.Sub(s2))
	}
	// Direction constraints over iteration counters of common loops.
	common := CommonDepth(r1, r2)
	for lvl := 0; lvl < common && lvl < len(dirs); lvl++ {
		k1 := Var(varName("k", lvl, 1))
		k2 := Var(varName("k", lvl, 2))
		switch dirs[lvl] {
		case DirLT:
			sys.AddGE(k2.Sub(k1).Add(NewAffine(-1))) // k2 - k1 - 1 >= 0
		case DirEQ:
			sys.AddEq(k1.Sub(k2))
		case DirGT:
			sys.AddGE(k1.Sub(k2).Add(NewAffine(-1)))
		case DirStar:
		}
	}
	return sys.Solve()
}
