package transform

import (
	"repro/internal/analysis"
	"repro/internal/ftn"
)

// checkIndirect decides an indirect-pattern site (§3.4, Fig. 3): the
// redundant copy loop ℓcp can be removed, the temporary At can gain a buffer
// dimension so a tile's worth of procedure results can be in flight at once,
// and the contents of At can be sent directly (At → Ar replaces At → As → Ar).
func (rw *rewriter) checkIndirect() error {
	op := rw.op
	cl := op.CopyLoop
	pos := op.L.Pos()
	rank := len(op.AsDims)
	if len(op.ArDims) != rank {
		return failf(pos, "%s and %s have different ranks", op.Call.As, op.Call.Ar)
	}
	if op.L.Step != nil {
		return failf(pos, "the outer loop must have step 1")
	}
	lo0, ok1 := analysis.EvalInt(op.L.Lo, op.Consts)
	hi0, ok2 := analysis.EvalInt(op.L.Hi, op.Consts)
	if !ok1 || !ok2 {
		return failf(pos, "outer loop bounds must be numeric")
	}
	n := hi0 - lo0 + 1
	// Each outer iteration produces one whole slab (verified by the
	// analysis); iteration iy maps to last-dimension index lastLo+(iy-lo0).
	if n != rw.lastHi-rw.lastLo+1 {
		return failf(pos, "outer loop trip count %d does not match the last dimension extent %d", n, rw.lastHi-rw.lastLo+1)
	}
	if rw.psz%rw.k != 0 {
		return failf(pos, "tile size K=%d must divide the partition size %d", rw.k, rw.psz)
	}
	// The slab volume must equal the per-plane volume (prefix product).
	prefix := int64(1)
	for d := 0; d < rank-1; d++ {
		l, okl := op.AsDims[d].Lo.Bind(op.Consts).Eval(nil)
		h, okh := op.AsDims[d].Hi.Bind(op.Consts).Eval(nil)
		if !okl || !okh {
			return failf(pos, "dimension %d of %s is not numeric", d+1, op.Call.As)
		}
		rw.planeLo = append(rw.planeLo, l)
		rw.planeExt = append(rw.planeExt, h-l+1)
		prefix *= rw.planeExt[d]
	}
	if prefix != cl.Count {
		return failf(pos, "slab volume %d does not match the plane volume %d of %s", cl.Count, prefix, op.Call.As)
	}
	if err := rw.checkAtDecl(); err != nil {
		return err
	}
	rw.lo0 = lo0
	rw.atLo, _ = cl.AtDims[0].Lo.Bind(op.Consts).Eval(nil)

	rw.res.TileCount = n / rw.k
	rw.res.Leftover = n % rw.k
	rw.res.MessagesTile = rw.np - 1
	rw.res.TileMsgElems = cl.Count * rw.k
	rw.res.Notes = append(rw.res.Notes,
		"copy loop eliminated; temporary expanded with a buffer dimension (double buffering across the tile)")
	return nil
}

// checkAtDecl finds At's declaration, which emitIndirect expands with a
// buffer dimension: At must be one-dimensional, declared on the entity itself
// so the expansion changes no sibling.
func (rw *rewriter) checkAtDecl() error {
	cl := rw.op.CopyLoop
	for _, d := range rw.op.Unit.Decls {
		for _, e := range d.Entities {
			if e.Name != cl.At {
				continue
			}
			if len(d.DimsOf(e)) != 1 {
				return failf(rw.op.L.Pos(), "temporary %s is not one-dimensional", cl.At)
			}
			if len(d.DimAttr) > 0 {
				return failf(rw.op.L.Pos(), "temporary %s declared via dimension attribute is unsupported", cl.At)
			}
			rw.atEntity = e
			return nil
		}
	}
	return failf(rw.op.L.Pos(), "declaration of %s not found", cl.At)
}

// emitIndirect emits the indirect schedule check decided on.
func (rw *rewriter) emitIndirect() {
	op := rw.op
	cl := op.CopyLoop
	rank := len(op.AsDims)

	// 1. Expand At with a buffer dimension: at(lo:hi) -> at(lo:hi, 1:K).
	rw.atEntity.Dims = []ftn.Dim{rw.atEntity.Dims[0], {Lo: ftn.Int(1), Hi: ftn.Int(rw.k)}}

	// 2. Redirect the fill call to the tile-local buffer:
	//    call p(..., at)  ->  call p(..., at(atLo, cc_buf)).
	vBuf := rw.fresh.Fresh("cc_buf")
	cl.Call.Args[cl.CallArgPos] = ftn.Call(cl.At, ftn.Int(rw.atLo), ftn.Id(vBuf))
	bufAssign := assign(vBuf, ftn.Add(ftn.Mod(ftn.Sub(ftn.Id(op.L.Var), ftn.Int(rw.lo0)), ftn.Int(rw.k)), ftn.Int(1)))

	// 3. Build the tile-end exchange. A tile covers K outer iterations =
	//    K consecutive planes, all owned by one rank (K divides psz).
	countExpr := ftn.Int(cl.Count * rw.k)
	vB := rw.fresh.Fresh("cc_b")
	prefixVars := make([]string, rank-1)
	for d := range prefixVars {
		prefixVars[d] = rw.fresh.Fresh("cc_c" + itoa(d+1))
	}

	// Receive start: ar(lo1, ..., lastLo + from*psz + off).
	recvRef := ftn.Call(op.Call.Ar)
	for d := 0; d < rank-1; d++ {
		recvRef.Args = append(recvRef.Args, affineToExpr(op.ArDims[d].Lo))
	}
	recvRef.Args = append(recvRef.Args, ftn.Add(rw.partitionStart(ftn.Id(rw.vFrom)), ftn.Id(rw.vOff)))

	recvLoop := doLoop(rw.vJ, ftn.Int(1), ftn.Sub(ftn.Id(rw.vNp), ftn.Int(1)), append(
		[]ftn.Stmt{assign(rw.vFrom, rw.ringPeer(false))},
		rw.irecv(recvRef, ftn.CloneExpr(countExpr), ftn.Id(rw.vFrom))...,
	))

	// Self copy: for each buffered plane b (1..K) copy at(:, b) into
	// ar(..., planeIdx) element-wise via the prefix dimension loops.
	planeIdx := ftn.Add(ftn.Add(rw.partitionStart(ftn.Id(rw.vMe)), ftn.Id(rw.vOff)), ftn.Sub(ftn.Id(vB), ftn.Int(1)))
	dstRef := ftn.Call(op.Call.Ar)
	for d := 0; d < rank-1; d++ {
		dstRef.Args = append(dstRef.Args, ftn.Id(prefixVars[d]))
	}
	dstRef.Args = append(dstRef.Args, planeIdx)
	// Linear index within the plane: (c2-lo2)*e1 + (c1-lo1) + atLo + cc_i? —
	// expressed directly: atIdx = atLo + Σ (c_d - lo_d)·stride_d.
	atIdx := ftn.Expr(ftn.Int(rw.atLo))
	stride := int64(1)
	for d := 0; d < rank-1; d++ {
		term := ftn.Mul(ftn.Sub(ftn.Id(prefixVars[d]), ftn.Int(rw.planeLo[d])), ftn.Int(stride))
		atIdx = ftn.Add(atIdx, term)
		stride *= rw.planeExt[d]
	}
	var selfCopy ftn.Stmt = assignRef(dstRef, ftn.Call(cl.At, atIdx, ftn.Id(vB)))
	for d := rank - 2; d >= 0; d-- {
		selfCopy = doLoop(prefixVars[d], affineToExpr(op.AsDims[d].Lo), affineToExpr(op.AsDims[d].Hi), []ftn.Stmt{selfCopy})
	}
	selfCopy = doLoop(vB, ftn.Int(1), ftn.Int(rw.k), []ftn.Stmt{selfCopy})

	sendOrRecv := &ftn.IfStmt{
		Cond: ftn.Bin("/=", ftn.Id(rw.vTo), ftn.Id(rw.vMe)),
		Then: rw.isend(ftn.Call(cl.At, ftn.Int(rw.atLo), ftn.Int(1)), countExpr, ftn.Id(rw.vTo)),
		Else: []ftn.Stmt{recvLoop, comment("local copy of this rank's own planes from the temporary"), selfCopy},
	}

	guard := &ftn.IfStmt{
		Cond: ftn.Bin("==", ftn.Mod(ftn.Add(ftn.Sub(ftn.Id(op.L.Var), ftn.Int(rw.lo0)), ftn.Int(1)), ftn.Int(rw.k)), ftn.Int(0)),
		Then: []ftn.Stmt{
			comment("pre-push tile exchange of the temporary (inserted by compuniformer)"),
			// Tile's first plane index on the last dimension.
			assign(rw.vLo, ftn.Add(ftn.Sub(ftn.Id(op.L.Var), ftn.Int(rw.lo0)), ftn.Int(rw.lastLo-rw.k+1))),
			incr(rw.vTile),
			assign(rw.vTo, ftn.Div(ftn.Sub(ftn.Id(rw.vLo), ftn.Int(rw.lastLo)), ftn.Int(rw.psz))),
			assign(rw.vOff, ftn.Sub(ftn.Sub(ftn.Id(rw.vLo), ftn.Int(rw.lastLo)), ftn.Mul(ftn.Id(rw.vTo), ftn.Int(rw.psz)))),
			sendOrRecv,
		},
	}

	// 4. Rewrite ℓ's body: buffer selection first, then the original
	//    statements with ℓcp REMOVED (§3.4), then at the tile start a wait
	//    that protects the buffered At planes still in flight, and the
	//    exchange at the tile end.
	waitAtStart := &ftn.IfStmt{
		Cond: ftn.Bin("==", ftn.Mod(ftn.Sub(ftn.Id(op.L.Var), ftn.Int(rw.lo0)), ftn.Int(rw.k)), ftn.Int(0)),
		Then: []ftn.Stmt{rw.waitAllBlock()},
	}
	var body []ftn.Stmt
	body = append(body, comment("wait for the previous tile before refilling the temporary"), waitAtStart, bufAssign)
	for i, s := range op.L.Body {
		if i == cl.LoopIndex {
			body = append(body, comment("redundant copy loop removed by compuniformer"))
			continue
		}
		body = append(body, s)
	}
	body = append(body, guard)
	op.L.Body = body

	// Declarations and splice.
	rw.declareInts(rw.vMe, rw.vNp, rw.vIerr, rw.vNreq, rw.vTile, rw.vLo, rw.vTo, rw.vFrom, rw.vJ, rw.vOff, vBuf, vB)
	if rank > 1 {
		rw.declareInts(prefixVars...)
	}
	rw.declareReqArray(rw.np)
	post := []ftn.Stmt{
		comment("drain the last tile's communication (inserted by compuniformer)"),
		rw.waitAllBlock(),
	}
	rw.spliceAroundL(rw.preLoopSetup(), post)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}
