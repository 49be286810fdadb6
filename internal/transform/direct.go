package transform

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/analysis"
	"repro/internal/dep"
	"repro/internal/ftn"
)

// checkDirect decides a direct-pattern site (§3.3) according to the node
// loop placement (§3.5).
func (rw *rewriter) checkDirect() error {
	op := rw.op
	pos := op.L.Pos()
	if len(op.SafeRefs) != len(op.WriteRefs) {
		return failf(pos, "%d of %d writes to %s are unsafe to pre-push", len(op.WriteRefs)-len(op.SafeRefs), len(op.WriteRefs), op.Call.As)
	}
	if len(op.ArDims) != len(op.AsDims) {
		return failf(pos, "%s and %s have different ranks", op.Call.As, op.Call.Ar)
	}
	chain := op.Nest.Loops
	if chain[0].Step != 1 {
		return failf(pos, "the tiled loop must have step 1")
	}
	// Prototype restriction: subscript coefficients in {0,1} so that tile
	// regions are dense and disjoint (no strided gaps).
	for _, w := range op.WriteRefs {
		for _, sub := range w.Subs {
			for _, v := range sub.Vars() {
				if c := sub.CoefOf(v); c != 0 && c != 1 {
					return failf(pos, "subscript coefficient %d of %s in a write to %s is unsupported", c, v, op.Call.As)
				}
			}
		}
	}
	// ℓ must finalize the whole array (§3.1): the union of everything it
	// writes must cover As.
	if err := rw.checkWholeArrayCoverage(); err != nil {
		return err
	}

	switch op.NodeCase {
	case analysis.NodeLoopInner:
		return rw.checkDirectInner()
	case analysis.NodeLoopOutermost:
		if op.InterchangeOK {
			return failf(pos, "interchange is pending; apply Interchange before the transformation")
		}
		return rw.checkSubset()
	}
	return failf(pos, "node loop not found")
}

// checkWholeArrayCoverage verifies that the union of the write regions over
// the full iteration space covers every element of As.
func (rw *rewriter) checkWholeArrayCoverage() error {
	op := rw.op
	union, err := rw.unionRegion(nil, "")
	if err != nil {
		return err
	}
	info, ok := access.Blocks(union, op.AsDims, op.Consts)
	if !ok || info.FullPrefix != len(op.AsDims) {
		return failf(op.L.Pos(), "loop nest does not finalize every element of %s (covered region %s)", op.Call.As, union)
	}
	return nil
}

// unionRegion computes the union of the write regions of all safe refs.
// When tiledVar is nonempty, that variable is restricted to
// [tileLo, tileLo+K-1]; otherwise full loop ranges are used.
func (rw *rewriter) unionRegion(tileLo *dep.Affine, tiledVar string) (access.Region, error) {
	op := rw.op
	var union access.Region
	first := true
	for _, w := range op.WriteRefs {
		var b access.Bounds
		var ok bool
		if tiledVar == "" {
			b, ok = access.TileBounds(w.Loops, "\x00none", dep.NewAffine(0), 1)
		} else {
			b, ok = access.TileBounds(w.Loops, tiledVar, *tileLo, rw.k)
		}
		if !ok {
			return access.Region{}, failf(op.L.Pos(), "cannot bound the loop nest iteration space")
		}
		reg, ok := access.WriteRegion(w, b)
		if !ok {
			return access.Region{}, failf(op.L.Pos(), "cannot compute the write region of %s", op.Call.As)
		}
		if first {
			union = reg
			first = false
			continue
		}
		u, ok := access.Union(union, reg, op.Consts)
		if !ok {
			return access.Region{}, failf(op.L.Pos(), "cannot union write regions of %s", op.Call.As)
		}
		union = u
	}
	return union, nil
}

// checkSubset decides the case where the node loop is ℓ's outermost (tiled)
// loop and interchange was not possible: each tile's block belongs to a
// single partition, so all ranks send to one owner per tile (§3.5's
// subset-send fallback, the shape of Fig. 2(b)). It also chooses between the
// owner-ordered and the staggered traversal.
func (rw *rewriter) checkSubset() error {
	op := rw.op
	pos := op.L.Pos()
	tiled := op.Nest.Loops[0]
	rank := len(op.AsDims)

	lo0, ok1 := tiled.Lo.Bind(op.Consts).Eval(nil)
	hi0, ok2 := tiled.Hi.Bind(op.Consts).Eval(nil)
	if !ok1 || !ok2 {
		return failf(pos, "tiled loop bounds must be numeric in the subset-send case")
	}
	n := hi0 - lo0 + 1

	// The last subscript must be tiledVar + c with numeric c, identical
	// across writes, and the loop must traverse the last dimension exactly.
	var cOff int64
	for i, w := range op.WriteRefs {
		lastSub := w.Subs[rank-1]
		if lastSub.CoefOf(tiled.Var) != 1 || len(lastSub.Vars()) != 1 {
			return failf(pos, "last subscript of %s must be %s + const in the subset-send case", op.Call.As, tiled.Var)
		}
		c := lastSub.Bind(op.Consts)
		delete(c.Coef, tiled.Var)
		if !c.IsConst() {
			return failf(pos, "last subscript offset of %s is not numeric", op.Call.As)
		}
		if i == 0 {
			cOff = c.Const
		} else if c.Const != cOff {
			return failf(pos, "writes to %s disagree on the last subscript offset", op.Call.As)
		}
	}
	if n != rw.lastHi-rw.lastLo+1 || lo0+cOff != rw.lastLo {
		return failf(pos, "tiled loop [%d:%d] does not traverse the last dimension [%d:%d] of %s", lo0, hi0, rw.lastLo, rw.lastHi, op.Call.As)
	}
	if rw.psz%rw.k != 0 {
		return failf(pos, "tile size K=%d must divide the partition size %d so tiles do not straddle partitions", rw.k, rw.psz)
	}

	// Per-tile region: prefix dims must be fully covered.
	tileLo := dep.Var(rw.vLo)
	region, err := rw.unionRegion(&tileLo, tiled.Var)
	if err != nil {
		return err
	}
	info, ok := access.Blocks(region, op.AsDims, op.Consts)
	if !ok || info.FullPrefix < rank-1 {
		return failf(pos, "a tile does not cover the leading dimensions of %s fully (region %s)", op.Call.As, region)
	}
	rw.lo0, rw.cOff = lo0, cOff

	// Staggered schedule (the Fig. 4 idea applied across tiles): when the
	// tiled loop's iterations are provably order-independent, each rank
	// traverses the partitions in ring order starting at me+1 — so at any
	// moment the np ranks are computing (and sending) tiles owned by np
	// distinct owners instead of all hammering the same owner, and every
	// rank ends on its own partition's self copy, leaving no communication
	// tail. The paper's literal per-tile wait keeps the original owner
	// order (its wait structure assumes it).
	rw.res.Staggered = !rw.opts.PerTileWait && !rw.opts.NoStagger && ReorderSafe(op)
	rw.res.TileCount = n / rw.k
	rw.res.Leftover = n % rw.k // always 0 under the divisibility checks
	rw.res.MessagesTile = rw.np - 1
	rw.res.TileMsgElems = rw.numericElems(op.AsDims[:rank-1]) * rw.k
	if rw.res.Staggered {
		rw.res.Notes = append(rw.res.Notes, "staggered subset-send schedule: ring partition order per rank, receives pre-posted (incast fix)")
	} else {
		rw.res.Notes = append(rw.res.Notes, "subset-send schedule: one owner per tile (congestion caveat, §3.5)")
	}
	return nil
}

// emitSubset emits the owner-ordered subset-send schedule: after each tile,
// every rank sends its block to the tile's owner, which receives them all.
func (rw *rewriter) emitSubset() {
	op := rw.op
	tiled := op.Nest.Loops[0]

	// Generated code: the builders shared with the staggered schedule.
	g := rw.newSubsetCodegen()

	recvLoop := doLoop(rw.vJ, ftn.Int(1), ftn.Sub(ftn.Id(rw.vNp), ftn.Int(1)), append(
		[]ftn.Stmt{assign(rw.vFrom, rw.ringPeer(false))},
		rw.irecv(g.bufStart(op.Call.Ar, g.recvStart()), g.count(), ftn.Id(rw.vFrom))...,
	))

	sendOrRecv := &ftn.IfStmt{
		Cond: ftn.Bin("/=", ftn.Id(rw.vTo), ftn.Id(rw.vMe)),
		Then: rw.isend(g.bufStart(op.Call.As, ftn.Id(rw.vLo)), g.count(), ftn.Id(rw.vTo)),
		Else: []ftn.Stmt{recvLoop, comment("local copy of this rank's own partition block"), g.selfCopy()},
	}

	guardBody := []ftn.Stmt{
		comment("pre-push tile exchange (inserted by compuniformer)"),
		// Tile start as a last-dimension index.
		assign(rw.vLo, ftn.Add(ftn.Sub(ftn.Id(tiled.Var), ftn.Int(rw.k-1)), ftn.Int(rw.cOff))),
	}
	if rw.opts.PerTileWait {
		guardBody = append(guardBody, rw.waitAllBlock())
	}
	guardBody = append(guardBody,
		incr(rw.vTile),
		assign(rw.vTo, ftn.Div(ftn.Sub(ftn.Id(rw.vLo), ftn.Int(rw.lastLo)), ftn.Int(rw.psz))),
		assign(rw.vOff, ftn.Sub(ftn.Sub(ftn.Id(rw.vLo), ftn.Int(rw.lastLo)), ftn.Mul(ftn.Id(rw.vTo), ftn.Int(rw.psz)))),
		sendOrRecv,
	)
	guard := &ftn.IfStmt{
		Cond: ftn.Bin("==", ftn.Mod(ftn.Add(ftn.Sub(ftn.Id(tiled.Var), ftn.Int(rw.lo0)), ftn.Int(1)), ftn.Int(rw.k)), ftn.Int(0)),
		Then: guardBody,
	}
	op.L.Body = append(op.L.Body, guard)

	// Declarations and splice.
	rw.declareInts(rw.vMe, rw.vNp, rw.vIerr, rw.vNreq, rw.vTile, rw.vLo, rw.vTo, rw.vFrom, rw.vJ, rw.vOff, g.vI)
	if len(g.prefixVars) > 0 {
		rw.declareInts(g.prefixVars...)
	}
	if rw.opts.PerTileWait {
		rw.declareReqArray(rw.np)
	} else {
		// Deferred waits: requests accumulate over a whole execution of ℓ.
		rw.declareReqArray(rw.res.TileCount * rw.np)
	}
	post := []ftn.Stmt{
		comment("drain the last tile's communication (inserted by compuniformer)"),
		rw.waitAllBlock(),
	}
	rw.spliceAroundL(rw.preLoopSetup(), post)
}

// emitStaggered emits the reordered subset-send schedule: the tiled loop
// (which traverses the last dimension, one partition owner per tile) is
// restructured so each rank visits the partitions in ring order starting at
// me+1 and finishing with its own. All receives are pre-posted before the
// loop (legal: Ar is unused inside ℓ), tagged by absolute tile index, so
// rendezvous transfers start the moment the sender's data is ready.
func (rw *rewriter) emitStaggered() {
	op := rw.op
	tiled := op.Nest.Loops[0]
	tpp := rw.psz / rw.k // tiles per partition

	g := rw.newSubsetCodegen()
	vPo := rw.fresh.Fresh("cc_po") // position in the ring traversal
	vTt := rw.fresh.Fresh("cc_tt") // tile within the partition
	vIt := rw.fresh.Fresh("cc_it") // first iteration of the tile

	// Restructure ℓ: the original loop body moves into an inner DO covering
	// one tile; ℓ itself becomes the ring-position loop.
	innerDo := &ftn.DoStmt{
		Var:  tiled.Var,
		Lo:   ftn.Id(vIt),
		Hi:   ftn.Add(ftn.Id(vIt), ftn.Int(rw.k-1)),
		Body: op.L.Body,
	}
	sendOrCopy := &ftn.IfStmt{
		Cond: ftn.Bin("/=", ftn.Id(rw.vTo), ftn.Id(rw.vMe)),
		Then: rw.isend(g.bufStart(op.Call.As, ftn.Id(rw.vLo)), g.count(), ftn.Id(rw.vTo)),
		Else: []ftn.Stmt{comment("local copy of this rank's own partition block"), g.selfCopy()},
	}
	tileLoop := doLoop(vTt, ftn.Int(0), ftn.Int(tpp-1), []ftn.Stmt{
		comment("staggered subset-send traversal (inserted by compuniformer)"),
		// Absolute tile index (also the message tag) and its bounds.
		assign(rw.vTile, ftn.Add(ftn.Mul(ftn.Id(rw.vTo), ftn.Int(tpp)), ftn.Id(vTt))),
		assign(vIt, ftn.Add(ftn.Int(rw.lo0), ftn.Mul(ftn.Id(rw.vTile), ftn.Int(rw.k)))),
		assign(rw.vLo, ftn.Add(ftn.Id(vIt), ftn.Int(rw.cOff))),
		innerDo,
		assign(rw.vOff, ftn.Mul(ftn.Id(vTt), ftn.Int(rw.k))),
		sendOrCopy,
	})
	op.L.Var = vPo
	op.L.Lo = ftn.Int(1)
	op.L.Hi = ftn.Id(rw.vNp)
	op.L.Step = nil
	op.L.Body = []ftn.Stmt{
		// Partition owner handled at this position; position np is me.
		assign(rw.vTo, ftn.Mod(ftn.Add(ftn.Id(rw.vMe), ftn.Id(vPo)), ftn.Id(rw.vNp))),
		tileLoop,
	}

	// Pre-posted receives: every tile of my partition, from every peer, into
	// the sender's block of Ar, tagged with the absolute tile index.
	preRecvs := doLoop(vTt, ftn.Int(0), ftn.Int(tpp-1), []ftn.Stmt{
		assign(rw.vTile, ftn.Add(ftn.Mul(ftn.Id(rw.vMe), ftn.Int(tpp)), ftn.Id(vTt))),
		assign(rw.vOff, ftn.Mul(ftn.Id(vTt), ftn.Int(rw.k))),
		doLoop(rw.vJ, ftn.Int(1), ftn.Sub(ftn.Id(rw.vNp), ftn.Int(1)), append(
			[]ftn.Stmt{assign(rw.vFrom, rw.ringPeer(false))},
			rw.irecv(g.bufStart(op.Call.Ar, g.recvStart()), g.count(), ftn.Id(rw.vFrom))...,
		)),
	})
	pre := append(rw.preLoopSetup(),
		comment("pre-post all receives for this rank's partition (staggered schedule)"),
		preRecvs,
	)
	post := []ftn.Stmt{
		comment("drain the last tile's communication (inserted by compuniformer)"),
		rw.waitAllBlock(),
	}

	rw.declareInts(rw.vMe, rw.vNp, rw.vIerr, rw.vNreq, rw.vTile, rw.vLo, rw.vTo, rw.vFrom, rw.vJ, rw.vOff, g.vI, vPo, vTt, vIt)
	if len(g.prefixVars) > 0 {
		rw.declareInts(g.prefixVars...)
	}
	rw.declareReqArray(2 * (rw.np - 1) * tpp)
	rw.spliceAroundL(pre, post)
}

// subsetCodegen bundles the generated-code builders shared by the
// owner-ordered and staggered subset-send schedules, so a fix to the
// buffer-start indexing or the self-copy nest cannot diverge between them.
type subsetCodegen struct {
	rw         *rewriter
	prefixVars []string // self-copy loop variables over the prefix dims
	vI         string   // self-copy loop variable over the tile
}

// newSubsetCodegen allocates the fresh names the builders use.
func (rw *rewriter) newSubsetCodegen() *subsetCodegen {
	g := &subsetCodegen{rw: rw}
	for d := 0; d < len(rw.op.AsDims)-1; d++ {
		g.prefixVars = append(g.prefixVars, rw.fresh.Fresh(fmt.Sprintf("cc_c%d", d+1)))
	}
	g.vI = rw.fresh.Fresh("cc_i")
	return g
}

// count builds the per-message element count: prefix volume × K.
func (g *subsetCodegen) count() ftn.Expr {
	dims := g.rw.op.AsDims
	return ftn.Mul(productExpr(dims[:len(dims)-1]), ftn.Int(g.rw.k))
}

// bufStart builds the message start element: prefix dims at their array
// lower bounds, the last dimension at lastIdx.
func (g *subsetCodegen) bufStart(array string, lastIdx ftn.Expr) *ftn.Ref {
	dims := g.rw.op.AsDims
	r := ftn.Call(array)
	for d := 0; d < len(dims)-1; d++ {
		r.Args = append(r.Args, affineToExpr(dims[d].Lo))
	}
	r.Args = append(r.Args, lastIdx)
	return r
}

// recvStart builds the last-dimension index a peer's tile lands at:
// lastLo + from*psz + off (the sender's block of Ar).
func (g *subsetCodegen) recvStart() ftn.Expr {
	rw := g.rw
	return ftn.Add(rw.partitionStart(ftn.Id(rw.vFrom)), ftn.Id(rw.vOff))
}

// selfCopy builds the element-wise copy of this rank's own partition block:
// ar(..., lastLo + me*psz + off + i) = as(..., cc_lo + i).
func (g *subsetCodegen) selfCopy() ftn.Stmt {
	rw := g.rw
	op := rw.op
	rank := len(op.AsDims)
	elemRef := func(array string, lastIdx ftn.Expr) *ftn.Ref {
		r := ftn.Call(array)
		for d := 0; d < rank-1; d++ {
			r.Args = append(r.Args, ftn.Id(g.prefixVars[d]))
		}
		r.Args = append(r.Args, lastIdx)
		return r
	}
	selfDst := ftn.Add(ftn.Add(rw.partitionStart(ftn.Id(rw.vMe)), ftn.Id(rw.vOff)), ftn.Id(g.vI))
	selfSrc := ftn.Add(ftn.Id(rw.vLo), ftn.Id(g.vI))
	var copy ftn.Stmt = doLoop(g.vI, ftn.Int(0), ftn.Int(rw.k-1), []ftn.Stmt{
		assignRef(elemRef(op.Call.Ar, selfDst), elemRef(op.Call.As, selfSrc)),
	})
	for d := rank - 2; d >= 0; d-- {
		copy = doLoop(g.prefixVars[d], affineToExpr(op.AsDims[d].Lo), affineToExpr(op.AsDims[d].Hi), []ftn.Stmt{copy})
	}
	return copy
}

// numericElems returns the product of the extents of dims when all are
// numeric, else 0.
func (rw *rewriter) numericElems(dims []access.Triplet) int64 {
	elems := int64(1)
	for _, d := range dims {
		ext, ok := d.Extent().Bind(rw.op.Consts).Eval(nil)
		if !ok {
			return 0
		}
		elems *= ext
	}
	return elems
}

// checkDirectInner decides the preferred case: the node loop is inside the
// tiled loop, so every tile writes data for all destinations and the Fig. 4
// staggered all-peers exchange runs at the end of each tile.
func (rw *rewriter) checkDirectInner() error {
	op := rw.op
	pos := op.L.Pos()
	tiled := op.Nest.Loops[0]
	rank := len(op.AsDims)

	tileLo := dep.Var(rw.vLo)
	region, err := rw.unionRegion(&tileLo, tiled.Var)
	if err != nil {
		return err
	}
	info, ok := access.Blocks(region, op.AsDims, op.Consts)
	if !ok {
		return failf(pos, "cannot analyze the tile block structure of %s", op.Call.As)
	}
	if info.BlockDim >= rank-1 {
		return failf(pos, "tile region %s leaves no inner node-loop structure", region)
	}
	// The last dimension must be fully covered per tile.
	full, okc := regionCoversDim(region, op.AsDims, rank-1, op.Consts)
	if !okc || !full {
		return failf(pos, "a tile does not traverse the whole last dimension of %s", op.Call.As)
	}
	// Exactly one dimension may depend on the tile window, it must be the
	// block dimension, and the tile's extent there must be exactly K.
	tiledDims := 0
	for d := range region.Dims {
		if region.Dims[d].Lo.CoefOf(rw.vLo) != 0 || region.Dims[d].Hi.CoefOf(rw.vLo) != 0 {
			tiledDims++
			if d != info.BlockDim {
				return failf(pos, "tile window leaks into dimension %d of %s", d+1, op.Call.As)
			}
		}
	}
	if tiledDims != 1 {
		return failf(pos, "tile window must affect exactly one dimension of %s, affects %d", op.Call.As, tiledDims)
	}
	if ext := region.Dims[info.BlockDim].Extent().Bind(op.Consts); !ext.IsConst() || ext.Const != rw.k {
		return failf(pos, "tile region extent %s at the block dimension is not the tile size %d", region.Dims[info.BlockDim].Extent(), rw.k)
	}

	// Block geometry: contiguous runs of prefixProduct × tileLen elements;
	// loop dims iterate the remaining dimensions, with the last dimension
	// restricted to one partition per peer. Count the point-to-point
	// messages per tile for reporting and for the request array size:
	// blocksPerDest = Π loop-dim extents with the last dim contributing psz.
	blocksPerDest := rw.psz
	for _, d := range info.LoopDims {
		if d == rank-1 {
			continue
		}
		ext, okx := region.Dims[d].Extent().Bind(op.Consts).Eval(nil)
		if !okx {
			return failf(pos, "tile block count along dimension %d is not numeric", d+1)
		}
		blocksPerDest *= ext
	}
	rw.region, rw.info = region, info

	// Deferred waits need the request array sized for every tile of one
	// execution; that requires a numeric trip count. Fall back to the
	// paper's per-tile wait otherwise.
	trip, numeric := tripOf(tiled, op.Consts)
	rw.perTile = rw.opts.PerTileWait || !numeric
	rw.reqSize = 2 * (rw.np - 1) * blocksPerDest
	rw.res.MessagesTile = rw.reqSize
	if !rw.perTile {
		rw.reqSize *= trip/rw.k + 1 // +1 for the leftover batch
	}
	if numeric {
		rw.res.TileCount = trip / rw.k
		rw.res.Leftover = trip % rw.k
	}
	rw.res.TileMsgElems = rw.numericElems(op.AsDims[:info.BlockDim]) * rw.k
	rw.res.Notes = append(rw.res.Notes, "all-peers staggered exchange per tile (Fig. 4)")
	return nil
}

// emitDirectInner emits the all-peers exchange after every whole tile, and
// once more after ℓ for the leftover iterations.
func (rw *rewriter) emitDirectInner() {
	op := rw.op
	tiled := op.Nest.Loops[0]
	rank := len(op.AsDims)
	blockDim := rw.info.BlockDim

	// Loop variables: one per array dimension (used by block loops and the
	// self copy).
	dimVars := make([]string, rank)
	for d := range dimVars {
		dimVars[d] = rw.fresh.Fresh(fmt.Sprintf("cc_b%d", d+1))
	}

	// commFor builds the whole per-tile exchange with the given tile length
	// expression (K for whole tiles, cc_rem for the leftover).
	commFor := func(tileLen ftn.Expr) []ftn.Stmt {
		blockCount := ftn.Mul(productExpr(op.AsDims[:blockDim]), ftn.CloneExpr(tileLen))

		// startRef builds the block start element for array at the current
		// block-loop indices; peer selects the partition on the last dim.
		startRef := func(array string) *ftn.Ref {
			r := ftn.Call(array)
			for d := 0; d < rank; d++ {
				switch {
				case d < blockDim:
					r.Args = append(r.Args, affineToExpr(op.AsDims[d].Lo))
				case d == blockDim:
					r.Args = append(r.Args, affineToExpr(rw.region.Dims[d].Lo))
				case contains(rw.info.LoopDims, d) || d == rank-1:
					r.Args = append(r.Args, ftn.Id(dimVars[d]))
				default:
					r.Args = append(r.Args, affineToExpr(rw.region.Dims[d].Lo))
				}
			}
			return r
		}

		// blockLoops wraps body in loops over the loop dims; the last dim
		// runs over the peer's partition.
		blockLoops := func(peerVar string, body []ftn.Stmt) ftn.Stmt {
			var s ftn.Stmt
			wrapped := body
			// Innermost to outermost: last dim first.
			pStart := rw.partitionStart(ftn.Id(peerVar))
			s = doLoop(dimVars[rank-1], pStart, ftn.Add(ftn.CloneExpr(pStart), ftn.Int(rw.psz-1)), wrapped)
			for i := len(rw.info.LoopDims) - 1; i >= 0; i-- {
				d := rw.info.LoopDims[i]
				if d == rank-1 {
					continue
				}
				s = doLoop(dimVars[d], affineToExpr(rw.region.Dims[d].Lo), affineToExpr(rw.region.Dims[d].Hi), []ftn.Stmt{s})
			}
			return s
		}

		sendBlock := blockLoops(rw.vTo, rw.isend(startRef(op.Call.As), ftn.CloneExpr(blockCount), ftn.Id(rw.vTo)))
		recvBlock := blockLoops(rw.vFrom, rw.irecv(startRef(op.Call.Ar), ftn.CloneExpr(blockCount), ftn.Id(rw.vFrom)))

		peerLoop := doLoop(rw.vJ, ftn.Int(1), ftn.Sub(ftn.Id(rw.vNp), ftn.Int(1)), []ftn.Stmt{
			assign(rw.vTo, rw.ringPeer(true)),
			sendBlock,
			assign(rw.vFrom, rw.ringPeer(false)),
			recvBlock,
		})

		// Self copy: element loops over the region with the last dim
		// restricted to this rank's partition and the block dim to the tile.
		elem := func(array string) *ftn.Ref {
			r := ftn.Call(array)
			for d := 0; d < rank; d++ {
				r.Args = append(r.Args, ftn.Id(dimVars[d]))
			}
			return r
		}
		var selfCopy ftn.Stmt = assignRef(elem(op.Call.Ar), elem(op.Call.As))
		for d := rank - 1; d >= 0; d-- {
			var lo, hi ftn.Expr
			switch {
			case d == rank-1:
				p := rw.partitionStart(ftn.Id(rw.vMe))
				lo, hi = p, ftn.Add(ftn.CloneExpr(p), ftn.Int(rw.psz-1))
			case d == blockDim:
				lo = affineToExpr(rw.region.Dims[d].Lo)
				hi = ftn.Add(ftn.Add(ftn.CloneExpr(lo), ftn.CloneExpr(tileLen)), ftn.Int(-1))
			default:
				lo, hi = affineToExpr(rw.region.Dims[d].Lo), affineToExpr(rw.region.Dims[d].Hi)
			}
			selfCopy = doLoop(dimVars[d], lo, hi, []ftn.Stmt{selfCopy})
		}

		out := []ftn.Stmt{}
		if rw.perTile {
			out = append(out, rw.waitAllBlock())
		}
		out = append(out,
			incr(rw.vTile),
			peerLoop,
			comment("local copy of this rank's own partition block"),
			selfCopy,
		)
		return out
	}

	// Whole-tile guard at the end of ℓ's body.
	guard := &ftn.IfStmt{
		Cond: ftn.Bin("==",
			ftn.Mod(ftn.Add(ftn.Sub(ftn.Id(tiled.Var), affineToExpr(tiled.Lo)), ftn.Int(1)), ftn.Int(rw.k)),
			ftn.Int(0)),
		Then: append([]ftn.Stmt{
			comment("pre-push tile exchange (inserted by compuniformer)"),
			assign(rw.vLo, ftn.Sub(ftn.Id(tiled.Var), ftn.Int(rw.k-1))),
		}, commFor(ftn.Int(rw.k))...),
	}
	op.L.Body = append(op.L.Body, guard)

	// Leftover iterations (§3.6 step 3), computed at run time.
	vRem := rw.fresh.Fresh("cc_rem")
	tripExpr := ftn.Add(ftn.Sub(affineToExpr(tiled.Hi), affineToExpr(tiled.Lo)), ftn.Int(1))
	leftover := []ftn.Stmt{
		comment("exchange leftover iterations not covered by whole tiles"),
		assign(vRem, ftn.Mod(tripExpr, ftn.Int(rw.k))),
		&ftn.IfStmt{
			Cond: ftn.Bin(">", ftn.Id(vRem), ftn.Int(0)),
			Then: append([]ftn.Stmt{
				assign(rw.vLo, ftn.Add(ftn.Sub(affineToExpr(tiled.Hi), ftn.Id(vRem)), ftn.Int(1))),
			}, commFor(ftn.Id(vRem))...),
		},
	}
	post := append(leftover,
		comment("drain the last tile's communication (inserted by compuniformer)"),
		rw.waitAllBlock(),
	)

	rw.declareInts(rw.vMe, rw.vNp, rw.vIerr, rw.vNreq, rw.vTile, rw.vLo, rw.vTo, rw.vFrom, rw.vJ, vRem)
	rw.declareInts(dimVars...)
	rw.declareReqArray(rw.reqSize)
	rw.spliceAroundL(rw.preLoopSetup(), post)
}

// regionCoversDim reports whether region covers array dimension d fully.
func regionCoversDim(region access.Region, arr []access.Triplet, d int, consts map[string]int64) (bool, bool) {
	loD := region.Dims[d].Lo.Bind(consts).Sub(arr[d].Lo.Bind(consts))
	hiD := arr[d].Hi.Bind(consts).Sub(region.Dims[d].Hi.Bind(consts))
	if !loD.IsConst() || !hiD.IsConst() {
		return false, false
	}
	return loD.Const <= 0 && hiD.Const <= 0, true
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func tripOf(lp dep.Loop, consts map[string]int64) (int64, bool) {
	lo, ok1 := lp.Lo.Bind(consts).Eval(nil)
	hi, ok2 := lp.Hi.Bind(consts).Eval(nil)
	if !ok1 || !ok2 {
		return 0, false
	}
	return hi - lo + 1, true
}
