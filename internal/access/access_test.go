package access

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dep"
)

func aff(c int64, terms ...interface{}) dep.Affine {
	a := dep.NewAffine(c)
	for i := 0; i+1 < len(terms); i += 2 {
		a.Coef[terms[i].(string)] = int64(terms[i+1].(int))
	}
	return a
}

func tri(lo, hi int64) Triplet {
	return Triplet{Lo: dep.NewAffine(lo), Hi: dep.NewAffine(hi)}
}

func TestIntervalOf(t *testing.T) {
	b := Bounds{
		"i": tri(1, 10),
		"j": tri(0, 4),
	}
	cases := []struct {
		a      dep.Affine
		lo, hi int64
	}{
		{aff(0, "i", 1), 1, 10},
		{aff(5, "i", 1), 6, 15},
		{aff(0, "i", 2), 2, 20},
		{aff(0, "i", -1), -10, -1},
		{aff(0, "i", 1, "j", 1), 1, 14},
		{aff(3, "i", -2, "j", 3), -17 + 0, 13},
		{aff(7), 7, 7},
	}
	for _, c := range cases {
		iv, ok := IntervalOf(c.a, b)
		if !ok {
			t.Errorf("IntervalOf(%v) failed", c.a)
			continue
		}
		lo, _ := iv.Lo.Eval(nil)
		hi, _ := iv.Hi.Eval(nil)
		if lo != c.lo || hi != c.hi {
			t.Errorf("IntervalOf(%v) = [%d,%d], want [%d,%d]", c.a, lo, hi, c.lo, c.hi)
		}
	}
	// Unbound variable fails.
	if _, ok := IntervalOf(aff(0, "z", 1), b); ok {
		t.Error("unbound variable should fail")
	}
}

func TestQuickIntervalSound(t *testing.T) {
	// Property: for random affine forms and random points inside the
	// bounds, the evaluated value lies within the computed interval.
	r := rand.New(rand.NewSource(33))
	check := func() bool {
		b := Bounds{}
		vars := []string{"i", "j", "k"}
		env := map[string]int64{}
		for _, v := range vars {
			lo := int64(r.Intn(10) - 5)
			hi := lo + int64(r.Intn(8))
			b[v] = tri(lo, hi)
			env[v] = lo + int64(r.Intn(int(hi-lo+1)))
		}
		a := dep.NewAffine(int64(r.Intn(11) - 5))
		for _, v := range vars {
			a.Coef[v] = int64(r.Intn(9) - 4)
		}
		iv, ok := IntervalOf(a, b)
		if !ok {
			return false
		}
		val, _ := a.Eval(env)
		lo, _ := iv.Lo.Eval(nil)
		hi, _ := iv.Hi.Eval(nil)
		return lo <= val && val <= hi
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRegion1D(t *testing.T) {
	// as(ix) over tile ix in [t, t+K-1].
	loops := []dep.Loop{{Var: "ix", Lo: dep.NewAffine(1), Hi: dep.NewAffine(64), Step: 1}}
	ref := &dep.Ref{Array: "as", Subs: []dep.Affine{aff(0, "ix", 1)}, Write: true, Loops: loops}
	tileLo := dep.Var("t")
	b, ok := TileBounds(loops, "ix", tileLo, 8)
	if !ok {
		t.Fatal("TileBounds failed")
	}
	reg, ok := WriteRegion(ref, b)
	if !ok {
		t.Fatal("WriteRegion failed")
	}
	if got := reg.Dims[0].Lo.String(); got != "1*t" {
		t.Errorf("lo = %q", got)
	}
	if got := reg.Dims[0].Hi.String(); got != "1*t + 7" {
		t.Errorf("hi = %q", got)
	}
}

func TestBlocksSingleAndMulti(t *testing.T) {
	consts := map[string]int64{}
	// Array a(1:10, 1:10); region (1:10, 3:5): covers dim1 fully,
	// so a single contiguous block of 10*3 = 30 elements.
	arr := []Triplet{tri(1, 10), tri(1, 10)}
	reg := Region{Dims: []Triplet{tri(1, 10), tri(3, 5)}}
	info, ok := Blocks(reg, arr, consts)
	if !ok {
		t.Fatal("Blocks failed")
	}
	if !info.Single {
		t.Errorf("want single block, got %+v", info)
	}
	if sz, _ := info.Size.Eval(nil); sz != 30 {
		t.Errorf("size = %d, want 30", sz)
	}
	if info.FullPrefix != 1 {
		t.Errorf("full prefix = %d, want 1", info.FullPrefix)
	}

	// Region (2:4, 3:5): dim1 partial: blocks of 3, one per j in 3..5.
	reg2 := Region{Dims: []Triplet{tri(2, 4), tri(3, 5)}}
	info2, ok := Blocks(reg2, arr, consts)
	if !ok {
		t.Fatal("Blocks failed")
	}
	if info2.Single {
		t.Error("partial dim1 must be multi-block")
	}
	if sz, _ := info2.Size.Eval(nil); sz != 3 {
		t.Errorf("block size = %d, want 3", sz)
	}
	if nb, _ := info2.NumBlocks.Eval(nil); nb != 3 {
		t.Errorf("num blocks = %d, want 3", nb)
	}
	if len(info2.LoopDims) != 1 || info2.LoopDims[0] != 1 {
		t.Errorf("loop dims = %v, want [1]", info2.LoopDims)
	}

	// Whole-array region: single block of 100.
	reg3 := Region{Dims: []Triplet{tri(1, 10), tri(1, 10)}}
	info3, _ := Blocks(reg3, arr, consts)
	if !info3.Single || info3.FullPrefix != 2 {
		t.Errorf("whole array: %+v", info3)
	}
	if sz, _ := info3.Size.Eval(nil); sz != 100 {
		t.Errorf("size = %d, want 100", sz)
	}
}

func TestBlocksSymbolicWithConsts(t *testing.T) {
	nx := dep.NewAffine(0)
	nx.Syms["nx"] = 1
	arr := []Triplet{{Lo: dep.NewAffine(1), Hi: nx}, tri(1, 4)}
	reg := Region{Dims: []Triplet{{Lo: dep.NewAffine(1), Hi: nx}, tri(2, 2)}}
	consts := map[string]int64{"nx": 16}
	info, ok := Blocks(reg, arr, consts)
	if !ok {
		t.Fatal("Blocks failed with symbolic extent")
	}
	if !info.Single {
		t.Errorf("single-point second dim should be single block: %+v", info)
	}
	if sz, _ := info.Size.Bind(consts).Eval(nil); sz != 16 {
		t.Errorf("size = %d, want 16", sz)
	}
}

func TestBlocksUndecidableSymbolicConservative(t *testing.T) {
	// Unknown extent: coverage is undecidable, so the dimension is treated
	// as partially covered (conservative: more, smaller blocks).
	unknown := dep.NewAffine(0)
	unknown.Syms["m"] = 1
	arr := []Triplet{{Lo: dep.NewAffine(1), Hi: unknown}}
	reg := Region{Dims: []Triplet{tri(1, 5)}}
	info, ok := Blocks(reg, arr, nil)
	if !ok {
		t.Fatal("conservative Blocks should succeed")
	}
	if info.FullPrefix != 0 {
		t.Errorf("full prefix = %d, want 0 (undecidable treated as partial)", info.FullPrefix)
	}
	if sz, _ := info.Size.Eval(nil); sz != 5 {
		t.Errorf("size = %d, want 5", sz)
	}
}

func TestUnionRegions(t *testing.T) {
	a := Region{Dims: []Triplet{tri(1, 5)}}
	b := Region{Dims: []Triplet{tri(4, 9)}}
	u, ok := Union(a, b, nil)
	if !ok {
		t.Fatal("Union failed")
	}
	lo, _ := u.Dims[0].Lo.Eval(nil)
	hi, _ := u.Dims[0].Hi.Eval(nil)
	if lo != 1 || hi != 9 {
		t.Errorf("union = [%d,%d], want [1,9]", lo, hi)
	}
}

func TestTileBoundsTriangular(t *testing.T) {
	// do iy (tiled) / do ix = iy, 64: ix interval uses tile's iy interval.
	loops := []dep.Loop{
		{Var: "iy", Lo: dep.NewAffine(1), Hi: dep.NewAffine(64), Step: 1},
		{Var: "ix", Lo: dep.Var("iy"), Hi: dep.NewAffine(64), Step: 1},
	}
	b, ok := TileBounds(loops, "iy", dep.Var("t"), 4)
	if !ok {
		t.Fatal("TileBounds failed")
	}
	if got := b["ix"].Lo.String(); got != "1*t" {
		t.Errorf("ix lo = %q, want 1*t", got)
	}
	if got := b["ix"].Hi.String(); got != "64" {
		t.Errorf("ix hi = %q, want 64", got)
	}
}
