package dep

import (
	"fmt"
	"sort"
)

// Direction is one component of a dependence direction vector, constraining
// how the source iteration relates to the sink iteration at one loop level.
type Direction int

// Direction vector components.
const (
	DirStar Direction = iota // unconstrained
	DirLT                    // source iteration strictly earlier
	DirEQ                    // same iteration
	DirGT                    // source iteration strictly later
)

// String renders the direction as the conventional symbol.
func (d Direction) String() string {
	switch d {
	case DirStar:
		return "*"
	case DirLT:
		return "<"
	case DirEQ:
		return "="
	case DirGT:
		return ">"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Loop describes one enclosing DO loop: var, affine bounds, constant step.
type Loop struct {
	// ID is the loop's identity within one AnalyzeNest result, assigned by
	// its walk (1, 2, … in pre-order); 0 for a loop record built by hand.
	ID   int
	Var  string
	Lo   Affine
	Hi   Affine
	Step int64 // nonzero; analysis is exact for any constant step
}

// SameLoop reports whether two loop records denote the same loop. Loops of
// one AnalyzeNest result compare by identity, so two sibling loops with
// identical headers stay distinct; records built by hand compare by header.
func SameLoop(a, b Loop) bool {
	if a.ID != 0 || b.ID != 0 {
		return a.ID == b.ID
	}
	return a.Var == b.Var && a.Step == b.Step && a.Lo.Equal(b.Lo) && a.Hi.Equal(b.Hi)
}

// Ref is one analyzed array reference.
type Ref struct {
	Array     string
	Subs      []Affine // one affine form per subscript dimension
	Write     bool
	Loops     []Loop // enclosing loops, outermost first
	Order     int    // lexical position, for intra-iteration ordering
	NonAffine bool   // true when any subscript could not be analyzed
}

// CommonDepth returns the number of leading loops shared by r1 and r2.
func CommonDepth(r1, r2 *Ref) int {
	n := len(r1.Loops)
	if len(r2.Loops) < n {
		n = len(r2.Loops)
	}
	d := 0
	for d < n && SameLoop(r1.Loops[d], r2.Loops[d]) {
		d++
	}
	return d
}

// observePair, when set, is told every direction query a pair answers. It
// exists for the differential test against the reference solver; nothing
// else sets it.
var observePair func(r1, r2 *Ref, dirs []Direction, got Feasibility)

// pair is the dependence problem of one (source, sink) reference pair: the
// iteration-space rows of both copies and the subscript equalities, built
// once on first use, to which each query appends its direction rows before
// solving. Copy c's loop at level l has an index i and an iteration counter
// k (i = lo + step·k, k ≥ 0, i within hi). Columns, in the order the solver
// breaks ties in: the pair's symbols, the free unknowns (loop-variable
// names that are not enclosing indices where they appear), then i by
// (level, copy), then k by (level, copy).
type pair struct {
	refs    [2]*Ref // source, sink
	common  int
	built   bool
	settled bool // answer holds for every query, nothing to solve
	answer  Feasibility
	n, nsym int
	free    []string // free unknowns, sorted; columns nsym, nsym+1, …
	syms    []string // symbols, sorted; columns 0, 1, …
	icol    [2][]int
	kcol    [2][]int
	base    []row
	sv      solver
}

func newPair(r1, r2 *Ref) *pair {
	return &pair{refs: [2]*Ref{r1, r2}, common: CommonDepth(r1, r2)}
}

// test decides whether a dependence from r1 to r2 can exist under dirs
// over the common loops; missing entries are DirStar.
func (p *pair) test(dirs []Direction) Feasibility {
	if !p.built {
		p.build()
	}
	got := p.answer
	if !p.settled {
		sv := &p.sv
		sv.reset(p.n, p.nsym)
		for _, b := range p.base {
			copy(sv.push(b.eq, b.k), b.c)
		}
		for lvl := 0; lvl < p.common && lvl < len(dirs); lvl++ {
			k1, k2 := p.kcol[0][lvl], p.kcol[1][lvl]
			switch dirs[lvl] {
			case DirLT: // k2 - k1 - 1 ≥ 0
				c := sv.push(false, -1)
				c[k2], c[k1] = 1, -1
			case DirEQ:
				c := sv.push(true, 0)
				c[k1], c[k2] = 1, -1
			case DirGT:
				c := sv.push(false, -1)
				c[k1], c[k2] = 1, -1
			}
		}
		got = sv.solve()
	}
	if observePair != nil {
		observePair(p.refs[0], p.refs[1], dirs, got)
	}
	return got
}

func (p *pair) settle(f Feasibility) {
	p.settled, p.answer = true, f
}

// build lays out the pair's columns and writes its base rows: per copy and
// level, i - lo - step·k = 0, k ≥ 0 and the step-appropriate bound on i;
// then one equality per subscript dimension.
func (p *pair) build() {
	p.built = true
	refs := p.refs
	r1, r2 := refs[0], refs[1]
	if r1.NonAffine || r2.NonAffine {
		p.settle(Unknown)
		return
	}
	if r1.Array != r2.Array || len(r1.Subs) != len(r2.Subs) {
		p.settle(Infeasible)
		return
	}
	for _, r := range refs {
		for lvl, lp := range r.Loops {
			if lp.Step == 0 {
				p.settle(Unknown)
				return
			}
			p.collect(r, lvl, lp.Lo)
			p.collect(r, lvl, lp.Hi)
		}
		for _, s := range r.Subs {
			p.collect(r, len(r.Loops), s)
		}
	}
	sort.Strings(p.syms)
	sort.Strings(p.free)
	p.nsym = len(p.syms)
	p.n = p.nsym + len(p.free)
	depth := max(len(r1.Loops), len(r2.Loops))
	for _, cols := range []*[2][]int{&p.icol, &p.kcol} {
		for c, r := range refs {
			cols[c] = make([]int, len(r.Loops))
		}
		for lvl := 0; lvl < depth; lvl++ {
			for c, r := range refs {
				if lvl < len(r.Loops) {
					cols[c][lvl] = p.n
					p.n++
				}
			}
		}
	}

	rows := 0
	for _, r := range refs {
		rows += 3 * len(r.Loops)
	}
	rows += len(r1.Subs)
	buf := make([]int64, rows*p.n)
	add := func(eq bool, k int64) []int64 {
		c := buf[:p.n:p.n]
		buf = buf[p.n:]
		p.base = append(p.base, row{c: c, k: k, eq: eq})
		return c
	}
	for cp, r := range refs {
		for lvl, lp := range r.Loops {
			iv, kv := p.icol[cp][lvl], p.kcol[cp][lvl]
			c := add(true, -lp.Lo.Const)
			p.addForm(c, cp, lvl, lp.Lo, -1)
			c[iv]++
			c[kv] -= lp.Step
			add(false, 0)[kv] = 1
			if lp.Step > 0 {
				c = add(false, lp.Hi.Const)
				p.addForm(c, cp, lvl, lp.Hi, 1)
				c[iv]--
			} else {
				c = add(false, -lp.Hi.Const)
				p.addForm(c, cp, lvl, lp.Hi, -1)
				c[iv]++
			}
		}
	}
	for d := range r1.Subs {
		c := add(true, r1.Subs[d].Const-r2.Subs[d].Const)
		p.addForm(c, 0, len(r1.Loops), r1.Subs[d], 1)
		p.addForm(c, 1, len(r2.Loops), r2.Subs[d], -1)
	}
}

// level returns the first of r's loops [0, upto) whose variable is v, or -1:
// a bound of level l sees the indices of the loops outside it, a subscript
// those of every enclosing loop.
func level(r *Ref, upto int, v string) int {
	for l := 0; l < upto; l++ {
		if r.Loops[l].Var == v {
			return l
		}
	}
	return -1
}

// collect records a's symbols and free unknowns as seen from r's first upto
// loops.
func (p *pair) collect(r *Ref, upto int, a Affine) {
	for v, k := range a.Coef {
		if k != 0 && level(r, upto, v) < 0 && !contains(p.free, v) {
			p.free = append(p.free, v)
		}
	}
	for s, k := range a.Syms {
		if k != 0 && !contains(p.syms, s) {
			p.syms = append(p.syms, s)
		}
	}
}

// addForm adds sign·a, less its constant, to row c of copy cp, resolving a's
// loop variables against that copy's first upto loops.
func (p *pair) addForm(c []int64, cp, upto int, a Affine, sign int64) {
	r := p.refs[cp]
	for v, k := range a.Coef {
		if k == 0 {
			continue
		}
		if l := level(r, upto, v); l >= 0 {
			c[p.icol[cp][l]] += sign * k
		} else {
			c[p.nsym+sort.SearchStrings(p.free, v)] += sign * k
		}
	}
	for s, k := range a.Syms {
		if k != 0 {
			c[sort.SearchStrings(p.syms, s)] += sign * k
		}
	}
}

// Depends decides whether any instance of r1 executes before an instance of
// r2 touching the same array element (the generic dependence question; the
// caller selects flow/anti/output by the refs' Write flags).
func Depends(r1, r2 *Ref) Feasibility {
	if r1.NonAffine || r2.NonAffine {
		return Unknown
	}
	p := newPair(r1, r2)
	result := Infeasible
	dirs := make([]Direction, p.common)
	// Classes (=^j, <, *^rest) for j in [0, common).
	for j := 0; j < p.common; j++ {
		for i := range dirs {
			switch {
			case i < j:
				dirs[i] = DirEQ
			case i == j:
				dirs[i] = DirLT
			default:
				dirs[i] = DirStar
			}
		}
		switch p.test(dirs) {
		case Feasible:
			return Feasible
		case Unknown:
			result = Unknown
		}
	}
	// Same-iteration class: r1 lexically precedes r2.
	if r1.Order < r2.Order {
		for i := range dirs {
			dirs[i] = DirEQ
		}
		switch p.test(dirs) {
		case Feasible:
			return Feasible
		case Unknown:
			result = Unknown
		}
	}
	return result
}

// HasOutputDepAfter reports whether some later write overwrites the element
// written by w: this is the paper's §3.3 safety question. A reference is
// safe to send once no output dependence leaves it. The w == w2 pair is
// included deliberately: a reference can overwrite itself across iterations.
func HasOutputDepAfter(w *Ref, writes []*Ref) Feasibility {
	result := Infeasible
	for _, w2 := range writes {
		if !w2.Write {
			continue
		}
		switch Depends(w, w2) {
		case Feasible:
			return Feasible
		case Unknown:
			result = Unknown
		}
	}
	return result
}

// DirectionVectors enumerates all feasible direction vectors (over common
// loops) for dependences from r1 to r2, restricted to plausible vectors
// (lexicographically positive, or all-= when r1 precedes r2 textually).
// The second result is false when any class was Unknown (then the returned
// set additionally contains those unknown vectors, conservatively).
func DirectionVectors(r1, r2 *Ref) ([][]Direction, bool) {
	p := newPair(r1, r2)
	common := p.common
	exact := true
	var out [][]Direction
	if r1.NonAffine || r2.NonAffine {
		// Conservative: every plausible vector.
		exact = false
		out = append(out, allPlausible(common, r1.Order < r2.Order)...)
		return out, exact
	}
	vec := make([]Direction, common)
	var rec func(depth int)
	rec = func(depth int) {
		if depth == common {
			if !plausible(vec, r1.Order < r2.Order) {
				return
			}
			switch p.test(vec) {
			case Feasible:
				out = append(out, append([]Direction(nil), vec...))
			case Unknown:
				exact = false
				out = append(out, append([]Direction(nil), vec...))
			}
			return
		}
		// Prune: test the partial vector (rest DirStar) first.
		for i := depth; i < common; i++ {
			vec[i] = DirStar
		}
		if p.test(vec) == Infeasible {
			return
		}
		for _, d := range [...]Direction{DirLT, DirEQ, DirGT} {
			vec[depth] = d
			rec(depth + 1)
		}
	}
	rec(0)
	return out, exact
}

// plausible reports whether the vector can describe a source-before-sink
// dependence: leading non-= must be <; all-= requires textual precedence.
func plausible(dirs []Direction, textOrder bool) bool {
	for _, d := range dirs {
		switch d {
		case DirLT:
			return true
		case DirGT:
			return false
		}
	}
	return textOrder
}

func allPlausible(n int, textOrder bool) [][]Direction {
	var out [][]Direction
	var rec func(prefix []Direction)
	rec = func(prefix []Direction) {
		if len(prefix) == n {
			if plausible(prefix, textOrder) {
				out = append(out, append([]Direction(nil), prefix...))
			}
			return
		}
		for _, d := range []Direction{DirLT, DirEQ, DirGT} {
			rec(append(prefix, d))
		}
	}
	rec(nil)
	return out
}

// InterchangeLegal decides whether interchanging loop levels p and q (0-based
// positions within the refs' common nest) preserves all dependences among
// refs. The second result is false when the answer relied on conservative
// (Unknown) dependence information.
func InterchangeLegal(refs []*Ref, p, q int) (bool, bool) {
	exact := true
	for _, r1 := range refs {
		for _, r2 := range refs {
			if !r1.Write && !r2.Write {
				continue // read-read pairs impose nothing
			}
			vecs, ex := DirectionVectors(r1, r2)
			if !ex {
				exact = false
			}
			for _, v := range vecs {
				if p >= len(v) || q >= len(v) {
					continue
				}
				perm := append([]Direction(nil), v...)
				perm[p], perm[q] = perm[q], perm[p]
				if !lexNonNegative(perm) {
					return false, exact
				}
			}
		}
	}
	return true, exact
}

// lexNonNegative reports whether the permuted vector still describes a
// forward (or same-iteration) dependence.
func lexNonNegative(dirs []Direction) bool {
	for _, d := range dirs {
		switch d {
		case DirLT:
			return true
		case DirGT:
			return false
		case DirStar:
			// '*' includes '>' possibilities: conservatively not legal.
			return false
		}
	}
	return true
}
