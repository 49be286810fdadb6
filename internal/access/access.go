// Package access implements the array access analysis of the paper's §3.3:
// partial triplets (symbolic lower/upper bounds per subscript dimension),
// the region of an array written during one tile of K iterations, and the
// size and offsets of the contiguous blocks that region occupies under
// Fortran column-major layout.
package access

import (
	"fmt"
	"strings"

	"repro/internal/dep"
)

// Triplet is the paper's partial triplet: inclusive symbolic bounds of one
// subscript dimension (stride handling is folded into the bounds; the
// coarse-grained representation assumes dense coverage in between, which is
// conservative for communication: we may send unwritten padding, never skip
// written data).
type Triplet struct {
	Lo dep.Affine
	Hi dep.Affine
}

// String renders the triplet as "lo:hi".
func (t Triplet) String() string { return t.Lo.String() + ":" + t.Hi.String() }

// Extent returns hi - lo + 1.
func (t Triplet) Extent() dep.Affine {
	return t.Hi.Sub(t.Lo).Add(dep.NewAffine(1))
}

// Region is a rectangular array region: one triplet per array dimension.
type Region struct {
	Dims []Triplet
}

// String renders the region as "(l1:h1, l2:h2, ...)".
func (r Region) String() string {
	parts := make([]string, len(r.Dims))
	for i, d := range r.Dims {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Bounds describes the iteration sub-space of one tile: an inclusive affine
// interval per loop variable. Loop variables absent from the map are
// unconstrained (an error for variables that appear in subscripts).
type Bounds map[string]Triplet

// IntervalOf evaluates the affine form a over the variable intervals in b,
// producing the (symbolic) interval the form can take. It fails when a
// references a variable with no interval.
func IntervalOf(a dep.Affine, b Bounds) (Triplet, bool) {
	lo := dep.NewAffine(a.Const)
	hi := dep.NewAffine(a.Const)
	// Symbolic invariants shift both bounds equally.
	for s, c := range a.Syms {
		sym := dep.NewAffine(0)
		sym.Syms[s] = c
		lo = lo.Add(sym)
		hi = hi.Add(sym)
	}
	for _, v := range a.Vars() {
		c := a.CoefOf(v)
		iv, ok := b[v]
		if !ok {
			return Triplet{}, false
		}
		if c >= 0 {
			lo = lo.Add(iv.Lo.Scale(c))
			hi = hi.Add(iv.Hi.Scale(c))
		} else {
			lo = lo.Add(iv.Hi.Scale(c))
			hi = hi.Add(iv.Lo.Scale(c))
		}
	}
	return Triplet{Lo: lo, Hi: hi}, true
}

// WriteRegion computes the region of ref's array written while the loop
// variables range over bounds. It fails for non-affine references.
func WriteRegion(ref *dep.Ref, bounds Bounds) (Region, bool) {
	if ref.NonAffine {
		return Region{}, false
	}
	r := Region{Dims: make([]Triplet, len(ref.Subs))}
	for d, sub := range ref.Subs {
		iv, ok := IntervalOf(sub, bounds)
		if !ok {
			return Region{}, false
		}
		r.Dims[d] = iv
	}
	return r, true
}

// Union widens r to cover o (per-dimension bound union). Bounds must be
// comparable either structurally or numerically; when incomparable, ok is
// false and the caller must treat the region as unknown.
func Union(r, o Region, consts map[string]int64) (Region, bool) {
	if len(r.Dims) != len(o.Dims) {
		return Region{}, false
	}
	out := Region{Dims: make([]Triplet, len(r.Dims))}
	for d := range r.Dims {
		lo, ok1 := minAffine(r.Dims[d].Lo, o.Dims[d].Lo, consts)
		hi, ok2 := maxAffine(r.Dims[d].Hi, o.Dims[d].Hi, consts)
		if !ok1 || !ok2 {
			return Region{}, false
		}
		out.Dims[d] = Triplet{Lo: lo, Hi: hi}
	}
	return out, true
}

// minAffine returns the smaller of two affine forms when decidable.
func minAffine(a, b dep.Affine, consts map[string]int64) (dep.Affine, bool) {
	if a.Equal(b) {
		return a, true
	}
	d := a.Bind(consts).Sub(b.Bind(consts))
	if d.IsConst() {
		if d.Const <= 0 {
			return a, true
		}
		return b, true
	}
	return dep.Affine{}, false
}

func maxAffine(a, b dep.Affine, consts map[string]int64) (dep.Affine, bool) {
	if a.Equal(b) {
		return a, true
	}
	d := a.Bind(consts).Sub(b.Bind(consts))
	if d.IsConst() {
		if d.Const >= 0 {
			return a, true
		}
		return b, true
	}
	return dep.Affine{}, false
}

// BlockInfo describes how a region decomposes into contiguous runs of
// elements under Fortran column-major layout.
type BlockInfo struct {
	// FullPrefix is the number of leading array dimensions the region
	// covers completely.
	FullPrefix int
	// BlockDim is the first not-fully-covered dimension (== FullPrefix);
	// equal to the array rank when the whole region is one block.
	BlockDim int
	// Size is the element count of one contiguous block:
	// Π extent(full dims) × extent(region at BlockDim).
	Size dep.Affine
	// LoopDims are the array dimensions (> BlockDim) the communication
	// loop nest must iterate to visit every block; empty means one block.
	LoopDims []int
	// NumBlocks is Π extent(region at LoopDims).
	NumBlocks dep.Affine
	// Single reports the optimal single-transfer case the paper highlights.
	Single bool
}

// Blocks analyzes the decomposition of region within an array declared with
// the given dimension triplets. consts resolves named constants when
// comparing symbolic bounds. It fails when full-coverage of a dimension
// cannot be decided.
func Blocks(region Region, arrDims []Triplet, consts map[string]int64) (*BlockInfo, bool) {
	if len(region.Dims) != len(arrDims) {
		return nil, false
	}
	n := len(arrDims)
	full := make([]bool, n)
	for d := 0; d < n; d++ {
		f, ok := coversFully(region.Dims[d], arrDims[d], consts)
		if !ok {
			return nil, false
		}
		full[d] = f
	}
	info := &BlockInfo{}
	// Leading fully-covered prefix.
	p := 0
	for p < n && full[p] {
		p++
	}
	info.FullPrefix = p
	info.BlockDim = p
	size := dep.NewAffine(1)
	for d := 0; d < p; d++ {
		size = mulAffine(size, arrDims[d].Extent(), consts)
	}
	if p < n {
		size = mulAffine(size, region.Dims[p].Extent(), consts)
	}
	info.Size = size
	num := dep.NewAffine(1)
	for d := p + 1; d < n; d++ {
		ext := region.Dims[d].Extent()
		one := ext.Bind(consts)
		if one.IsConst() && one.Const == 1 {
			continue // single point: no loop needed, offset is fixed
		}
		info.LoopDims = append(info.LoopDims, d)
		num = mulAffine(num, ext, consts)
	}
	info.NumBlocks = num
	nb := num.Bind(consts)
	info.Single = nb.IsConst() && nb.Const == 1
	return info, true
}

// coversFully reports whether the region dimension spans the declared
// dimension exactly (or more). When the comparison is symbolic and
// undecidable it conservatively answers "not fully covered", which yields
// smaller blocks (more messages) but never skips written data.
func coversFully(r, arr Triplet, consts map[string]int64) (bool, bool) {
	loD := r.Lo.Bind(consts).Sub(arr.Lo.Bind(consts))
	hiD := arr.Hi.Bind(consts).Sub(r.Hi.Bind(consts))
	if r.Lo.Equal(arr.Lo) {
		loD = dep.NewAffine(0)
	}
	if r.Hi.Equal(arr.Hi) {
		hiD = dep.NewAffine(0)
	}
	if !loD.IsConst() || !hiD.IsConst() {
		return false, true
	}
	return loD.Const <= 0 && hiD.Const <= 0, true
}

// mulAffine multiplies two affine forms when at least one side is constant
// after binding; otherwise it returns a symbolic product placeholder that
// still prints usefully (used only for reporting, never for codegen).
func mulAffine(a, b dep.Affine, consts map[string]int64) dep.Affine {
	ab := a.Bind(consts)
	bb := b.Bind(consts)
	if ab.IsConst() {
		return bb.Scale(ab.Const)
	}
	if bb.IsConst() {
		return ab.Scale(bb.Const)
	}
	out := dep.NewAffine(0)
	out.Syms[fmt.Sprintf("(%s)*(%s)", a, b)] = 1
	return out
}

// TileBounds builds the Bounds map for one tile of the paper's
// transformation: the tiled loop variable is restricted to
// [tileLo, tileLo+k-1] and every other loop keeps its declared range.
// Inner-loop bounds that reference the tiled variable are resolved against
// the tile interval by interval arithmetic.
func TileBounds(loops []dep.Loop, tiledVar string, tileLo dep.Affine, k int64) (Bounds, bool) {
	b := Bounds{}
	// Two passes: outer loops first so triangular bounds can resolve.
	for _, lp := range loops {
		if lp.Var == tiledVar {
			b[lp.Var] = Triplet{Lo: tileLo, Hi: tileLo.Add(dep.NewAffine(k - 1))}
			continue
		}
		loIv, ok1 := IntervalOf(lp.Lo, b)
		hiIv, ok2 := IntervalOf(lp.Hi, b)
		if !ok1 || !ok2 {
			return nil, false
		}
		if lp.Step >= 0 {
			b[lp.Var] = Triplet{Lo: loIv.Lo, Hi: hiIv.Hi}
		} else {
			b[lp.Var] = Triplet{Lo: hiIv.Lo, Hi: loIv.Hi}
		}
	}
	return b, true
}
