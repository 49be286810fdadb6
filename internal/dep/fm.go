package dep

import (
	"fmt"
	"sort"
)

// Feasibility is the three-valued answer of the integer solver.
type Feasibility int

// Solver answers.
const (
	Infeasible Feasibility = iota // provably no integer solution
	Feasible                      // provably an integer solution exists
	Unknown                       // analysis could not decide (treat as feasible)
)

// String names the feasibility value.
func (f Feasibility) String() string {
	switch f {
	case Infeasible:
		return "infeasible"
	case Feasible:
		return "feasible"
	case Unknown:
		return "unknown"
	}
	return fmt.Sprintf("Feasibility(%d)", int(f))
}

// System is a conjunction of integer linear constraints written as affine
// forms. Loop variables and symbols are distinct unknowns even when they
// share a name; a symbol is unbounded unless a constraint bounds it, so the
// solver can only prove infeasibility through one that cancels.
type System struct {
	cons []Affine
	eq   []bool
}

// AddEq adds the equality a = 0 over the system's variables.
func (s *System) AddEq(a Affine) { s.add(a, true) }

// AddGE adds the inequality a ≥ 0.
func (s *System) AddGE(a Affine) { s.add(a, false) }

// AddLE adds a ≤ 0 (i.e. -a ≥ 0).
func (s *System) AddLE(a Affine) { s.add(a.Scale(-1), false) }

func (s *System) add(a Affine, eq bool) {
	s.cons = append(s.cons, a.Clone())
	s.eq = append(s.eq, eq)
}

// Clone copies the system.
func (s *System) Clone() *System {
	return &System{cons: append([]Affine(nil), s.cons...), eq: append([]bool(nil), s.eq...)}
}

// Solve decides integer feasibility of the system. Its columns are the
// symbols, then the loop variables, each sorted by name — the order the
// elimination breaks ties in — and each row lists its loop variables before
// its symbols, the order equality substitution scans.
func (s *System) Solve() Feasibility {
	var syms, vars []string
	for _, a := range s.cons {
		vars = appendNew(vars, a.Coef)
		syms = appendNew(syms, a.Syms)
	}
	sort.Strings(syms)
	sort.Strings(vars)
	var sv solver
	sv.reset(len(syms)+len(vars), len(syms))
	for i, a := range s.cons {
		c := sv.push(s.eq[i], a.Const)
		for v, k := range a.Coef {
			if k != 0 {
				c[len(syms)+sort.SearchStrings(vars, v)] += k
			}
		}
		for name, k := range a.Syms {
			if k != 0 {
				c[sort.SearchStrings(syms, name)] += k
			}
		}
	}
	return sv.solve()
}

// appendNew appends the names of m's nonzero entries not yet in names.
func appendNew(names []string, m map[string]int64) []string {
	for name, k := range m {
		if k != 0 && !contains(names, name) {
			names = append(names, name)
		}
	}
	return names
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// row is one constraint  Σ c[j]·x_j + k  (= 0 when eq, ≥ 0 otherwise) with
// one coefficient per variable of its system. terms lists an equality's
// nonzero columns in the order unit-coefficient substitution scans them:
// the row's own order, with variables substitution brings in appended.
// Only equalities carry it, and only while phase 1 runs.
type row struct {
	c     []int64
	k     int64
	eq    bool
	terms []int
}

// solver decides one system of rows in place. Its arenas outlive a solve so
// that the queries of one reference pair reuse them, never longer.
type solver struct {
	n int // variables
	// rot is the first column of a row's own term order: columns [rot, n)
	// come first, then [0, rot).
	rot   int
	rows  []row
	next  []row // the rows of the next elimination round
	lows  []row
	highs []row
	cbuf  []int64 // coefficient arena
	tbuf  []int   // term-list arena
}

// reset empties the solver for a system of n variables.
func (sv *solver) reset(n, rot int) {
	sv.n, sv.rot = n, rot
	sv.rows = sv.rows[:0]
	sv.cbuf = sv.cbuf[:0]
	sv.tbuf = sv.tbuf[:0]
}

// push appends a zero row with constant k and returns its coefficients.
func (sv *solver) push(eq bool, k int64) []int64 {
	c := carve(&sv.cbuf, sv.n)
	sv.rows = append(sv.rows, row{c: c, k: k, eq: eq})
	return c
}

// carve takes n zeroed elements from an arena, starting a new chunk when
// the current one is full (rows already carved keep the old chunk).
func carve[T int64 | int](buf *[]T, n int) []T {
	b := *buf
	if len(b)+n > cap(b) {
		b = make([]T, 0, max(64*n, 2*cap(b)))
	}
	s := b[len(b) : len(b)+n : len(b)+n]
	clear(s)
	*buf = b[:len(b)+n]
	return s
}

// solve decides integer feasibility using equality normalization followed
// by Fourier–Motzkin elimination with the dark-shadow integer refinement
// (the same technique family as the Omega test). It is exact (never returns
// Unknown) when all eliminations are unit-coefficient or dark-shadow exact,
// which covers the affine subscripts that occur in the paper's domain.
func (sv *solver) solve() Feasibility {
	for i := range sv.rows {
		if r := &sv.rows[i]; r.eq {
			r.terms = sv.termsOf(r.c)
		}
	}
	exact := true

	// Phase 1: eliminate equalities.
	for {
		progress := false
		for i := 0; i < len(sv.rows); i++ {
			r := &sv.rows[i]
			if !r.eq {
				continue
			}
			// GCD test: gcd of coefficients must divide the constant.
			g := rowGCD(r.c)
			if g == 0 {
				if r.k != 0 {
					return Infeasible
				}
				sv.rows = append(sv.rows[:i], sv.rows[i+1:]...)
				i--
				progress = true
				continue
			}
			if g > 1 {
				if r.k%g != 0 {
					return Infeasible
				}
				for j := range r.c {
					r.c[j] /= g
				}
				r.k /= g
			}
			v := -1
			for _, j := range r.terms {
				if r.c[j] == 1 || r.c[j] == -1 {
					v = j
					break
				}
			}
			if v < 0 {
				// No unit coefficient: leave the equality as a pair of
				// inequalities; mark inexact (FM may not be able to prove
				// integer feasibility).
				exact = false
				r.eq, r.terms = false, nil
				ge := *r
				le := carve(&sv.cbuf, sv.n)
				for j, k := range ge.c {
					le[j] = -k
				}
				sv.rows = append(sv.rows, row{c: le, k: -ge.k})
				progress = true
				continue
			}
			e := *r
			sv.rows = append(sv.rows[:i], sv.rows[i+1:]...)
			if !sv.substitute(e, v) {
				return Unknown
			}
			progress = true
			i--
		}
		if !progress {
			break
		}
	}

	// Phase 2: Fourier–Motzkin elimination on inequalities.
	for {
		// Pick the variable with the fewest lower×upper combinations.
		v, bestCost := -1, int(^uint(0)>>1)
		for j := 0; j < sv.n; j++ {
			lo, hi := 0, 0
			for i := range sv.rows {
				switch k := sv.rows[i].c[j]; {
				case k > 0:
					lo++
				case k < 0:
					hi++
				}
			}
			if lo+hi > 0 && lo*hi < bestCost {
				v, bestCost = j, lo*hi
			}
		}
		if v < 0 {
			break
		}
		lows, highs, rest := sv.lows[:0], sv.highs[:0], sv.next[:0]
		for _, r := range sv.rows {
			switch k := r.c[v]; {
			case k > 0:
				lows = append(lows, r) // a·v + rest + const ≥ 0
			case k < 0:
				highs = append(highs, r)
			default:
				rest = append(rest, r)
			}
		}
		sv.lows, sv.highs = lows, highs
		if len(lows) == 0 || len(highs) == 0 {
			// v unbounded on one side: all constraints involving v are
			// satisfiable by pushing v far enough; drop them.
			sv.rows, sv.next = rest, sv.rows[:0]
			continue
		}
		for _, lo := range lows {
			if maxAbs(lo) > coefLimit {
				return Unknown
			}
			a := lo.c[v]
			for _, hi := range highs {
				if maxAbs(hi) > coefLimit {
					return Unknown
				}
				b := -hi.c[v]
				// lo: a·v + Lrest ≥ 0  →  a·v ≥ -Lrest
				// hi: -b·v + Hrest ≥ 0 →  b·v ≤ Hrest
				// real shadow: b·(-Lrest) ≤ a·Hrest → a·Hrest + b·Lrest ≥ 0.
				// When a==1 or b==1 the real shadow is integer-exact; with
				// both coefficients > 1 it only bounds rational solutions,
				// so a Feasible outcome degrades to Unknown (Infeasible
				// stays sound: no rational solution means no integer one).
				if a > 1 && b > 1 {
					exact = false
				}
				comb := row{c: carve(&sv.cbuf, sv.n), k: b*lo.k + a*hi.k}
				for j := range comb.c {
					comb.c[j] = b*lo.c[j] + a*hi.c[j]
				}
				comb.c[v] = 0
				g := rowGCD(comb.c)
				if g == 0 {
					if comb.k < 0 {
						return Infeasible
					}
					continue
				}
				if g > 1 {
					// Floor on the constant is exact for integer rows.
					for j := range comb.c {
						comb.c[j] /= g
					}
					comb.k = floorDiv(comb.k, g)
				}
				rest = append(rest, comb)
			}
		}
		sv.rows, sv.next = rest, sv.rows[:0]
		if len(sv.rows) > 4000 {
			// Constraint explosion guard; the dependence problems in our
			// domain never approach this.
			return Unknown
		}
	}

	// All variables eliminated: only constant inequalities remain.
	for _, r := range sv.rows {
		if r.k < 0 {
			return Infeasible
		}
	}
	if exact {
		return Feasible
	}
	return Unknown
}

// substitute eliminates v, whose coefficient in the equality e is ±1, from
// every row: v = -(e - e[v]·v)/e[v]. The new variables of an equality are
// appended to its term list, in e's order. Like an elimination round it
// refuses rows past coefLimit (false: the system is Unknown) rather than
// form a product that could wrap.
func (sv *solver) substitute(e row, v int) bool {
	if maxAbs(e) > coefLimit {
		return false
	}
	sign := -e.c[v]
	for i := range sv.rows {
		r := &sv.rows[i]
		k := r.c[v]
		if k == 0 {
			continue
		}
		if maxAbs(*r) > coefLimit {
			return false
		}
		m := sign * k
		r.c[v] = 0
		if r.terms != nil {
			r.terms = removeTerm(r.terms, v)
		}
		for _, j := range e.terms {
			if j == v {
				continue
			}
			was := r.c[j]
			r.c[j] += m * e.c[j]
			if r.terms != nil {
				switch {
				case was == 0:
					r.terms = append(r.terms, j)
				case r.c[j] == 0:
					r.terms = removeTerm(r.terms, j)
				}
			}
		}
		r.k += m * e.k
	}
	return true
}

// termsOf lists c's nonzero columns in the row order: [rot, n), then
// [0, rot). The list has room for every column, so appends stay in place.
func (sv *solver) termsOf(c []int64) []int {
	t := carve(&sv.tbuf, sv.n)[:0]
	for j := sv.rot; j < sv.n; j++ {
		if c[j] != 0 {
			t = append(t, j)
		}
	}
	for j := 0; j < sv.rot; j++ {
		if c[j] != 0 {
			t = append(t, j)
		}
	}
	return t
}

func removeTerm(terms []int, j int) []int {
	for i, t := range terms {
		if t == j {
			return append(terms[:i], terms[i+1:]...)
		}
	}
	return terms
}

// coefLimit bounds coefficient growth during elimination. Combining two
// rows — or substituting an equality into a row — multiplies coefficients
// pairwise; with every input magnitude at most coefLimit (2³⁰) the products
// stay under 2⁶⁰ and their sums under 2⁶², so int64 arithmetic cannot
// overflow within one step. A row that grows past the limit makes the
// solver answer Unknown — the conservative verdict (treated as feasible by
// dependence tests) — instead of deciding from silently wrapped numbers.
const coefLimit = 1 << 30

// maxAbs returns the largest magnitude among a row's coefficients and
// constant.
func maxAbs(r row) int64 {
	m := r.k
	if m < 0 {
		m = -m
	}
	for _, k := range r.c {
		if k < 0 {
			k = -k
		}
		if k > m {
			m = k
		}
	}
	return m
}

// rowGCD is the gcd of a row's coefficients, 0 when they are all zero.
func rowGCD(c []int64) int64 {
	g := int64(0)
	for _, k := range c {
		if k != 0 {
			g = gcd(g, k)
		}
	}
	return g
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
