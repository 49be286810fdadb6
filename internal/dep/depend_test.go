package dep

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ftn"
)

// mkLoop builds a constant-bound unit-step loop.
func mkLoop(v string, lo, hi int64) Loop {
	return Loop{Var: v, Lo: NewAffine(lo), Hi: NewAffine(hi), Step: 1}
}

// mkRef builds a reference with the given subscripts.
func mkRef(array string, write bool, loops []Loop, order int, subs ...Affine) *Ref {
	return &Ref{Array: array, Subs: subs, Write: write, Loops: loops, Order: order}
}

func TestDependsClassicFlow(t *testing.T) {
	// do i = 1,10: A(i) = A(i-1): flow dep with direction (<).
	loops := []Loop{mkLoop("i", 1, 10)}
	w := mkRef("a", true, loops, 0, Var("i"))
	r := mkRef("a", false, loops, 1, Var("i").Sub(NewAffine(1)))
	if got := Depends(w, r); got != Feasible {
		t.Errorf("flow dep = %v, want feasible", got)
	}
	vecs, exact := DirectionVectors(w, r)
	if !exact {
		t.Error("expected exact direction vectors")
	}
	if len(vecs) != 1 || vecs[0][0] != DirLT {
		t.Errorf("vectors = %v, want [<]", vecs)
	}
}

func TestDependsNoAliasDisjoint(t *testing.T) {
	// A(2i) = ... ; ... = A(2i+1): never the same element (GCD).
	loops := []Loop{mkLoop("i", 1, 100)}
	w := mkRef("a", true, loops, 0, Var("i").Scale(2))
	r := mkRef("a", false, loops, 1, Var("i").Scale(2).Add(NewAffine(1)))
	if got := Depends(w, r); got != Infeasible {
		t.Errorf("disjoint strided = %v, want infeasible", got)
	}
}

func TestDependsSelfOutputDistinctElements(t *testing.T) {
	// do i: A(i) = ... : no two iterations write the same element.
	loops := []Loop{mkLoop("i", 1, 50)}
	w := mkRef("a", true, loops, 0, Var("i"))
	if got := HasOutputDepAfter(w, []*Ref{w}); got != Infeasible {
		t.Errorf("self output = %v, want infeasible", got)
	}
	// do i: A(1) = ... : every iteration writes element 1.
	w2 := mkRef("a", true, loops, 0, NewAffine(1))
	if got := HasOutputDepAfter(w2, []*Ref{w2}); got != Feasible {
		t.Errorf("constant subscript output = %v, want feasible", got)
	}
}

func TestDependsTwoLevels(t *testing.T) {
	// do iy = 1,10 / do ix = 1,10: As(ix) = ... overwritten across iy.
	loops := []Loop{mkLoop("iy", 1, 10), mkLoop("ix", 1, 10)}
	w := mkRef("as", true, loops, 0, Var("ix"))
	if got := HasOutputDepAfter(w, []*Ref{w}); got != Feasible {
		t.Errorf("output across outer = %v, want feasible", got)
	}
	vecs, _ := DirectionVectors(w, w)
	// Expect (<, *)-style vectors only; all must have iy-level '<'.
	for _, v := range vecs {
		if v[0] != DirLT {
			t.Errorf("vector %v should have < at outer level", v)
		}
	}
	// 2-D subscripts: As(ix, iy): distinct everywhere, no output dep.
	w2 := mkRef("as", true, loops, 1, Var("ix"), Var("iy"))
	if got := HasOutputDepAfter(w2, []*Ref{w2}); got != Infeasible {
		t.Errorf("distinct 2d = %v, want infeasible", got)
	}
}

func TestDependsTriangular(t *testing.T) {
	// do i = 1,10 / do j = i+1,10 : A(j) = A(i) — flow dep exists
	// (element j written at iteration (i,j) read later? A(i) read at (i,j),
	// A(j) written at (i,j); read of A(i2) equals write A(j1) when i2 = j1,
	// possible with i2 in (j1, ...): direction (<,*)).
	outer := mkLoop("i", 1, 10)
	inner := Loop{Var: "j", Lo: Var("i").Add(NewAffine(1)), Hi: NewAffine(10), Step: 1}
	loops := []Loop{outer, inner}
	w := mkRef("a", true, loops, 0, Var("j"))
	r := mkRef("a", false, loops, 1, Var("i"))
	if got := Depends(w, r); got != Feasible {
		t.Errorf("triangular dep = %v, want feasible", got)
	}
	// But A(i) writes vs A(i) writes at same i are same iteration only at
	// the same (i): output dep across j iterations at equal i exists for
	// subscript i (same element rewritten for each j).
	w2 := mkRef("a", true, loops, 0, Var("i"))
	if got := HasOutputDepAfter(w2, []*Ref{w2}); got != Feasible {
		t.Errorf("same-element rewrite = %v, want feasible", got)
	}
}

func TestDependsNegativeStep(t *testing.T) {
	// do i = 10, 1, -1: A(i) = A(i+1): the "earlier" iteration has larger i.
	loops := []Loop{{Var: "i", Lo: NewAffine(10), Hi: NewAffine(1), Step: -1}}
	w := mkRef("a", true, loops, 0, Var("i"))
	r := mkRef("a", false, loops, 1, Var("i").Add(NewAffine(1)))
	// Write A(i0) at iteration k0 (i0 = 10-k0); read A(i1+1) at iteration
	// k1. Same element: i0 = i1+1, i.e. i1 = i0-1 which happens at a LATER
	// iteration (smaller i). Flow dependence write->read exists.
	if got := Depends(w, r); got != Feasible {
		t.Errorf("negative-step flow = %v, want feasible", got)
	}
	// Reverse (read first): r at iteration of i, reads i+1, which was NOT
	// yet written (i+1 is written earlier in time!). Anti-dependence
	// read->write: read A(i0+1) then write A(i1) with i1 = i0+1 later:
	// i1 = i0+1 means earlier iteration for negative step => infeasible.
	if got := Depends(r, w); got != Infeasible {
		t.Errorf("negative-step anti = %v, want infeasible", got)
	}
}

func TestDependsStep2(t *testing.T) {
	// do i = 1, 9, 2 (odd i): A(i) writes odd elements; A(2j) even: disjoint.
	loops1 := []Loop{{Var: "i", Lo: NewAffine(1), Hi: NewAffine(9), Step: 2}}
	w := mkRef("a", true, loops1, 0, Var("i"))
	loops2 := []Loop{mkLoop("j", 1, 4)}
	r := mkRef("a", false, loops2, 1, Var("j").Scale(2))
	if got := Depends(w, r); got != Infeasible {
		t.Errorf("odd/even = %v, want infeasible", got)
	}
}

func TestInterchangeLegality(t *testing.T) {
	loops := []Loop{mkLoop("i", 2, 10), mkLoop("j", 2, 10)}
	// A(i,j) = A(i-1,j-1): vector (<,<): interchange legal.
	w1 := mkRef("a", true, loops, 0, Var("i"), Var("j"))
	r1 := mkRef("a", false, loops, 1, Var("i").Sub(NewAffine(1)), Var("j").Sub(NewAffine(1)))
	legal, exact := InterchangeLegal([]*Ref{w1, r1}, 0, 1)
	if !legal || !exact {
		t.Errorf("(<,<) interchange legal=%v exact=%v, want true,true", legal, exact)
	}
	// A(i,j) = A(i-1,j+1): vector (<,>): interchange illegal.
	r2 := mkRef("a", false, loops, 1, Var("i").Sub(NewAffine(1)), Var("j").Add(NewAffine(1)))
	legal2, _ := InterchangeLegal([]*Ref{w1, r2}, 0, 1)
	if legal2 {
		t.Error("(<,>) interchange should be illegal")
	}
	// Independent elements: A(i,j) only (no reads): legal.
	legal3, _ := InterchangeLegal([]*Ref{w1}, 0, 1)
	if !legal3 {
		t.Error("independent writes interchange should be legal")
	}
}

func TestNonAffineConservative(t *testing.T) {
	loops := []Loop{mkLoop("i", 1, 10)}
	w := mkRef("a", true, loops, 0, NewAffine(0))
	w.NonAffine = true
	r := mkRef("a", false, loops, 1, Var("i"))
	if got := Depends(w, r); got != Unknown {
		t.Errorf("non-affine dep = %v, want unknown", got)
	}
}

// --- Brute-force oracle property tests ---

// bruteDepends enumerates all iteration pairs and reports whether a
// source-before-sink pair touches the same element. Loops must have constant
// bounds and steps. Returns false if the space is too large.
func bruteDepends(r1, r2 *Ref) (bool, bool) {
	iters := func(r *Ref) ([]map[string]int64, bool) {
		envs := []map[string]int64{{}}
		for _, lp := range r.Loops {
			if lp.Step == 0 {
				return nil, false
			}
			var next []map[string]int64
			for _, env := range envs {
				lo, ok1 := lp.Lo.Eval(env)
				hi, ok2 := lp.Hi.Eval(env)
				if !ok1 || !ok2 {
					return nil, false
				}
				if lp.Step > 0 {
					for v := lo; v <= hi; v += lp.Step {
						e := cloneEnv(env)
						e[lp.Var] = v
						next = append(next, e)
					}
				} else {
					for v := lo; v >= hi; v += lp.Step {
						e := cloneEnv(env)
						e[lp.Var] = v
						next = append(next, e)
					}
				}
				if len(next) > 200000 {
					return nil, false
				}
			}
			envs = next
		}
		return envs, true
	}
	it1, ok1 := iters(r1)
	it2, ok2 := iters(r2)
	if !ok1 || !ok2 {
		return false, false
	}
	common := CommonDepth(r1, r2)
	elem := func(r *Ref, env map[string]int64) ([]int64, bool) {
		out := make([]int64, len(r.Subs))
		for i, s := range r.Subs {
			v, ok := s.Eval(env)
			if !ok {
				return nil, false
			}
			out[i] = v
		}
		return out, true
	}
	for idx1, e1 := range it1 {
		for idx2, e2 := range it2 {
			// Source-before-sink: compare common iteration counters
			// (enumeration order is execution order), tie-broken textually.
			before := false
			cmp := 0
			for lvl := 0; lvl < common; lvl++ {
				v := r1.Loops[lvl].Var
				// Iteration counter order equals value order for step>0 and
				// reverses for step<0.
				a, b := e1[v], e2[v]
				if r1.Loops[lvl].Step < 0 {
					a, b = -a, -b
				}
				if a != b {
					if a < b {
						cmp = -1
					} else {
						cmp = 1
					}
					break
				}
			}
			switch {
			case cmp < 0:
				before = true
			case cmp > 0:
				before = false
			default:
				before = r1.Order < r2.Order
			}
			_ = idx1
			_ = idx2
			if !before {
				continue
			}
			s1, ok1 := elem(r1, e1)
			s2, ok2 := elem(r2, e2)
			if !ok1 || !ok2 {
				return false, false
			}
			same := true
			for i := range s1 {
				if s1[i] != s2[i] {
					same = false
					break
				}
			}
			if same {
				return true, true
			}
		}
	}
	return false, true
}

func cloneEnv(env map[string]int64) map[string]int64 {
	c := make(map[string]int64, len(env)+1)
	for k, v := range env {
		c[k] = v
	}
	return c
}

// randAffineSub builds a random affine subscript over the loop variables.
func randAffineSub(r *rand.Rand, vars []string) Affine {
	a := NewAffine(int64(r.Intn(7) - 3))
	for _, v := range vars {
		c := int64(r.Intn(5) - 2)
		if c != 0 {
			a.Coef[v] = c
		}
	}
	return a
}

func TestQuickDependsMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(481488))
	check := func() bool {
		nLoops := 1 + r.Intn(2)
		var loops []Loop
		names := []string{"i", "j"}
		for k := 0; k < nLoops; k++ {
			lo := int64(r.Intn(4))
			hi := lo + int64(r.Intn(6))
			loops = append(loops, mkLoop(names[k], lo, hi))
		}
		vars := names[:nLoops]
		nSubs := 1 + r.Intn(2)
		var s1, s2 []Affine
		for d := 0; d < nSubs; d++ {
			s1 = append(s1, randAffineSub(r, vars))
			s2 = append(s2, randAffineSub(r, vars))
		}
		r1 := mkRef("a", true, loops, 0, s1...)
		r2 := mkRef("a", r.Intn(2) == 0, loops, 1, s2...)
		want, ok := bruteDepends(r1, r2)
		if !ok {
			return true // space too large; skip
		}
		got := Depends(r1, r2)
		if want && got == Infeasible {
			t.Logf("UNSOUND: oracle dep exists but solver says infeasible\n r1=%v subs=%v\n r2=%v subs=%v loops=%v",
				r1.Write, s1, r2.Write, s2, loops)
			return false
		}
		if !want && got == Feasible {
			t.Logf("IMPRECISE-as-WRONG: oracle no dep but solver says feasible\n r1 subs=%v\n r2 subs=%v loops=%v",
				s1, s2, loops)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDirectionVectorsSound(t *testing.T) {
	// Every dependence found by the oracle must be covered by some reported
	// direction vector class.
	r := rand.New(rand.NewSource(2005))
	check := func() bool {
		lo1 := int64(1 + r.Intn(3))
		loops := []Loop{mkLoop("i", lo1, lo1+int64(r.Intn(5))), mkLoop("j", 1, int64(1+r.Intn(5)))}
		s1 := randAffineSub(r, []string{"i", "j"})
		s2 := randAffineSub(r, []string{"i", "j"})
		r1 := mkRef("a", true, loops, 0, s1)
		r2 := mkRef("a", true, loops, 1, s2)
		want, ok := bruteDepends(r1, r2)
		if !ok {
			return true
		}
		vecs, _ := DirectionVectors(r1, r2)
		if want && len(vecs) == 0 {
			t.Logf("oracle dep but no direction vectors: s1=%v s2=%v loops=%v", s1, s2, loops)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- AnalyzeNest integration ---

func analyzeSrc(t *testing.T, src, array string) *NestInfo {
	t.Helper()
	f, err := ftn.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u := f.Program()
	st := ftn.Symbols(u)
	arrays := map[string]bool{}
	consts := map[string]int64{}
	for _, name := range st.Names() {
		sym := st.Lookup(name)
		if sym.IsArray() {
			arrays[name] = true
		}
		if sym.Parameter {
			if lit, ok := sym.Init.(*ftn.IntLit); ok {
				consts[name] = lit.Value
			}
		}
	}
	var do *ftn.DoStmt
	ftn.Inspect(u.Body, func(s ftn.Stmt) bool {
		if d, ok := s.(*ftn.DoStmt); ok && do == nil {
			do = d
			return false
		}
		return true
	})
	if do == nil {
		t.Fatal("no loop found")
	}
	return AnalyzeNest(do, consts, arrays)
}

func TestAnalyzeNestInnerLoopSafe(t *testing.T) {
	src := `
program p
  integer, parameter :: nx = 16
  integer as(1:nx)
  integer ix
  do ix = 1, nx
    as(ix) = ix*3
  enddo
end program p
`
	info := analyzeSrc(t, src, "as")
	writes := info.Writes("as")
	if len(writes) != 1 {
		t.Fatalf("writes = %d, want 1", len(writes))
	}
	if got := HasOutputDepAfter(writes[0], writes); got != Infeasible {
		t.Errorf("inner loop write should be safe, got %v", got)
	}
	if len(info.Loops) != 1 || info.Loops[0].Var != "ix" {
		t.Errorf("loops = %+v", info.Loops)
	}
	if hi, _ := info.Loops[0].Hi.Eval(nil); hi != 16 {
		t.Errorf("hi = %d, want 16 (parameter folded)", hi)
	}
}

func TestAnalyzeNestOuterUnsafe(t *testing.T) {
	src := `
program p
  integer, parameter :: nx = 8
  integer as(1:nx)
  integer ix, iy
  do iy = 1, nx
    do ix = 1, nx
      as(ix) = ix + iy
    enddo
  enddo
end program p
`
	info := analyzeSrc(t, src, "as")
	writes := info.Writes("as")
	if len(writes) != 1 {
		t.Fatalf("writes = %d, want 1", len(writes))
	}
	if got := HasOutputDepAfter(writes[0], writes); got != Feasible {
		t.Errorf("outer nest rewrite should be unsafe, got %v", got)
	}
}

func TestAnalyzeNestScalarForwardSubstitution(t *testing.T) {
	src := `
program p
  integer as(1:100)
  integer ix, tx
  do ix = 1, 50
    tx = ix + 50
    as(tx) = ix
  enddo
end program p
`
	info := analyzeSrc(t, src, "as")
	writes := info.Writes("as")
	if len(writes) != 1 {
		t.Fatalf("writes = %d", len(writes))
	}
	w := writes[0]
	if w.NonAffine {
		t.Fatal("tx = ix + 50 should forward-substitute")
	}
	want := Var("ix").Add(NewAffine(50))
	if !w.Subs[0].Equal(want) {
		t.Errorf("subscript = %v, want %v", w.Subs[0], want)
	}
}

func TestAnalyzeNestModPoisons(t *testing.T) {
	src := `
program p
  integer as(1:100)
  integer ix, tx
  do ix = 1, 100
    tx = mod(ix, 10)
    as(tx) = ix
  enddo
end program p
`
	info := analyzeSrc(t, src, "as")
	writes := info.Writes("as")
	if len(writes) != 1 || !writes[0].NonAffine {
		t.Errorf("mod-based subscript should be non-affine: %+v", writes)
	}
}

func TestAnalyzeNestCallPoisonsArray(t *testing.T) {
	src := `
program p
  integer at(1:100)
  integer iy
  do iy = 1, 10
    call p2(iy, at)
  enddo
end program p
`
	info := analyzeSrc(t, src, "at")
	writes := info.Writes("at")
	if len(writes) != 1 {
		t.Fatalf("call should record a conservative write, got %d", len(writes))
	}
	if !writes[0].NonAffine {
		t.Error("call write should be non-affine (conservative)")
	}
}

func TestAnalyzeNestIfBranchMerge(t *testing.T) {
	src := `
program p
  integer as(1:100)
  integer ix, tx
  do ix = 1, 50
    tx = ix
    if (ix > 25) then
      tx = ix + 1
    endif
    as(tx) = ix
  enddo
end program p
`
	info := analyzeSrc(t, src, "as")
	writes := info.Writes("as")
	if len(writes) != 1 || !writes[0].NonAffine {
		t.Error("branch-dependent scalar must poison the subscript")
	}
}

// TestSiblingLoopsAreDistinct: two sibling loops with identical headers are
// two loops, not one common level. The second loop overwrites as(2..nx-1)
// after the first wrote it, in the same iteration of j.
func TestSiblingLoopsAreDistinct(t *testing.T) {
	src := `
program p
  integer nx
  integer as(1:100)
  integer ix, j
  do j = 1, 1
    do ix = 1, nx-1
      as(ix) = ix
    enddo
    do ix = 1, nx-1
      as(ix+1) = ix
    enddo
  enddo
end program p
`
	info := analyzeSrc(t, src, "as")
	writes := info.Writes("as")
	if len(writes) != 2 {
		t.Fatalf("writes = %d, want 2", len(writes))
	}
	first, second := writes[0], writes[1]
	if d := CommonDepth(first, second); d != 1 {
		t.Errorf("CommonDepth = %d, want 1 (only j is shared)", d)
	}
	if d := CommonDepth(first, first); d != 2 {
		t.Errorf("CommonDepth(first, first) = %d, want 2", d)
	}
	if got := HasOutputDepAfter(first, writes); got != Feasible {
		t.Errorf("HasOutputDepAfter(first write) = %v, want feasible: the second loop overwrites it", got)
	}
	vecs, exact := DirectionVectors(first, second)
	if !exact || len(vecs) != 1 || len(vecs[0]) != 1 || vecs[0][0] != DirEQ {
		t.Errorf("DirectionVectors(first, second) = %v (exact %v), want [[=]]", vecs, exact)
	}
	if got := HasOutputDepAfter(second, writes); got != Infeasible {
		t.Errorf("HasOutputDepAfter(second write) = %v, want infeasible", got)
	}
}
