// Package transform implements the pre-push transformation of the paper's
// §3.5–§3.6: tiling the finalizing loop nest ℓ, generating the asynchronous
// communication code (Fig. 4), inserting the inter-tile waits, handling
// leftover iterations, removing the original MPI_ALLTOALL, and — for the
// indirect pattern — eliminating the redundant copy loop and expanding the
// temporary array with a buffer dimension (§3.4).
//
// A site is rewritten in two halves. Check runs every legality and geometry
// rule, decides the schedule and fills the Result without writing the AST.
// Emit builds nodes from what check decided and cannot fail. Check alone
// gives a site's facts without a rewrite; Apply is check then emit, so a
// rejected site is left exactly as it was.
package transform

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/analysis"
	"repro/internal/ftn"
)

// Options configures the transformation.
type Options struct {
	// K is the tile size: iterations of ℓ's tiled loop per tile (§2).
	K int64
	// NP is the number of ranks the transformed program will run with; it
	// must divide the extent of As's last dimension. When 0, the named
	// constant "np" of the program is used.
	NP int64
	// PerTileWait reproduces the paper's §3.6 step 2 literally: each tile
	// blocks on the previous tile's requests before posting its own. The
	// default (false) defers every wait to the post-loop drain, which is
	// correct for the direct pattern (no buffer is reused within ℓ) and
	// avoids stalling a tile's owner behind the incast — the request
	// array is sized for a whole execution of ℓ instead of one tile.
	// The indirect pattern always waits at tile start regardless (its
	// temporary buffers are reused every K iterations).
	PerTileWait bool
	// NoStagger forces the paper's literal owner-ordered subset-send
	// traversal (partitions 0..np-1) even when tile order independence is
	// provable and the staggered ring schedule would be legal. A plan's
	// send_order "sequential" knob maps here; the default (false) staggers
	// whenever the reorder proof succeeds.
	NoStagger bool
	// Names, when non-nil, holds every name visible in the site's unit: the
	// rewrite forks it for its fresh variables instead of scanning the unit.
	// It must be kept up to date with what earlier rewrites declared.
	Names *ftn.FreshNamer
}

// Error is a transformation failure tied to a source position.
type Error struct {
	Pos ftn.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: cannot transform: %s", e.Pos, e.Msg) }

func failf(pos ftn.Pos, format string, args ...interface{}) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Result describes what the transformation did, for reporting.
type Result struct {
	Pattern       analysis.Pattern
	NodeCase      analysis.NodeLoopCase
	K             int64
	NP            int64
	PartitionSize int64 // last-dimension units per rank
	TileCount     int64 // tiles per execution of ℓ
	Leftover      int64 // iterations not covered by whole tiles
	MessagesTile  int64 // point-to-point messages posted per tile, per rank
	// TileMsgElems is the element count of one point-to-point message at
	// this K (0 when not numeric); the tuner's analytic seeding divides it
	// by K to price candidate tile sizes.
	TileMsgElems int64
	// Staggered marks the reordered subset-send schedule (ring partition
	// order per rank with pre-posted receives) — the incast fix.
	Staggered    bool
	Interchanged bool
	Notes        []string
}

// rewriter carries the state of one site's transformation.
type rewriter struct {
	op    *analysis.Opportunity
	opts  Options
	fresh *ftn.FreshNamer
	res   *Result

	np     int64
	k      int64
	lastLo int64 // numeric lower bound of As's last dimension
	lastHi int64
	psz    int64 // partition size in last-dimension units

	// Fresh variable names.
	vMe, vNp, vIerr, vNreq, vTile, vLo, vTo, vFrom, vJ, vOff, vReqs string

	typeExpr ftn.Expr // the MPI datatype argument, reused from C
	commExpr ftn.Expr // the communicator argument, reused from C

	// Decided by check for emit: ℓ's numeric lower bound and last subscript
	// offset (subset sends, indirect); one tile's write region, its blocks and
	// the request array's waits and size (all-peers); At's declared entity and
	// lower bound, and As's plane layout (indirect).
	lo0, cOff         int64
	region            access.Region
	info              *access.BlockInfo
	perTile           bool
	reqSize           int64
	atEntity          *ftn.Entity
	atLo              int64
	planeLo, planeExt []int64
}

// Check runs every legality and geometry rule of the transformation for the
// opportunity and returns what Apply would report, without touching the AST,
// together with the options the chosen schedule reads: two Options Check
// returns equal for one site make Apply emit the same code there. Knobs the
// schedule ignores are zeroed (the indirect pattern reads neither; the
// all-peers exchange no send order; the staggered schedule no wait
// placement), a per-tile wait the trip count forces reads as PerTileWait,
// and a staggering the tile-order proof refuses reads as NoStagger. Names is
// left out.
func Check(op *analysis.Opportunity, opts Options) (*Result, Options, error) {
	rw, err := check(op, opts)
	if err != nil {
		return nil, Options{}, err
	}
	read := Options{K: opts.K, NP: opts.NP}
	switch {
	case op.Pattern == analysis.PatternIndirect:
	case op.NodeCase == analysis.NodeLoopInner:
		read.PerTileWait = rw.perTile
	case !rw.res.Staggered:
		read.PerTileWait, read.NoStagger = opts.PerTileWait, true
	}
	return rw.res, read, nil
}

// Apply transforms the opportunity in place (the AST the analysis refers
// to is rewritten) and returns a result description.
func Apply(op *analysis.Opportunity, opts Options) (*Result, error) {
	rw, err := check(op, opts)
	if err != nil {
		return nil, err
	}
	rw.emit()
	return rw.res, nil
}

// check is the first half of a rewrite: it decides the site or rejects it.
func check(op *analysis.Opportunity, opts Options) (*rewriter, error) {
	if opts.K <= 0 {
		return nil, failf(op.Call.Stmt.Pos(), "tile size K must be positive, got %d", opts.K)
	}
	rw := &rewriter{
		op:   op,
		opts: opts,
		res:  &Result{Pattern: op.Pattern, NodeCase: op.NodeCase, K: opts.K},
		k:    opts.K,
	}
	if opts.Names != nil {
		rw.fresh = opts.Names.Fork()
	} else {
		rw.fresh = ftn.NewFreshNamer(op.Unit)
	}
	if err := rw.resolveParameters(); err != nil {
		return nil, err
	}
	rw.allocateNames() // reserved, not declared: the tile regions are affine in vLo

	var err error
	switch op.Pattern {
	case analysis.PatternDirect:
		err = rw.checkDirect()
	case analysis.PatternIndirect:
		err = rw.checkIndirect()
	default:
		err = failf(op.Call.Stmt.Pos(), "unknown pattern")
	}
	if err != nil {
		return nil, err
	}
	return rw, nil
}

// emit is the second half: it builds the schedule check chose.
func (rw *rewriter) emit() {
	switch {
	case rw.op.Pattern == analysis.PatternIndirect:
		rw.emitIndirect()
	case rw.op.NodeCase == analysis.NodeLoopInner:
		rw.emitDirectInner()
	case rw.res.Staggered:
		rw.emitStaggered()
	default:
		rw.emitSubset()
	}
}

// resolveParameters determines NP, the last-dimension bounds, and the
// partition size, and validates divisibility and the original sendcount.
func (rw *rewriter) resolveParameters() error {
	op := rw.op
	pos := op.Call.Stmt.Pos()
	rw.np = rw.opts.NP
	if rw.np == 0 {
		if v, ok := op.Consts["np"]; ok {
			rw.np = v
		}
	}
	if rw.np <= 1 {
		return failf(pos, "number of ranks unknown: pass Options.NP or declare the parameter np")
	}
	rw.res.NP = rw.np

	dims := op.AsDims
	last := dims[len(dims)-1]
	lo, ok1 := last.Lo.Bind(op.Consts).Eval(nil)
	hi, ok2 := last.Hi.Bind(op.Consts).Eval(nil)
	if !ok1 || !ok2 {
		return failf(pos, "the last dimension of %s must have numeric bounds", op.Call.As)
	}
	rw.lastLo, rw.lastHi = lo, hi
	ext := hi - lo + 1
	if ext <= 0 {
		return failf(pos, "the last dimension of %s is empty: zero-element partitions leave nothing to pre-push", op.Call.As)
	}
	if ext%rw.np != 0 {
		return failf(pos, "last dimension extent %d of %s is not divisible by np=%d", ext, op.Call.As, rw.np)
	}
	rw.psz = ext / rw.np
	rw.res.PartitionSize = rw.psz

	// Validate the original sendcount against the partition volume when
	// both are numeric: a mismatched count means the original call did not
	// exchange the whole array and pre-pushing it would change semantics.
	total := int64(1)
	numeric := true
	for _, d := range dims {
		l, okl := d.Lo.Bind(op.Consts).Eval(nil)
		h, okh := d.Hi.Bind(op.Consts).Eval(nil)
		if !okl || !okh {
			numeric = false
			break
		}
		total *= h - l + 1
	}
	if numeric {
		if sc, ok := analysis.EvalInt(op.Call.SendCount, op.Consts); ok && sc*rw.np != total {
			return failf(pos, "sendcount %d × np %d ≠ %d elements of %s: the call does not exchange the whole array", sc, rw.np, total, op.Call.As)
		}
	}
	rw.typeExpr = op.Call.SendType
	rw.commExpr = op.Call.Comm
	return nil
}

// allocateNames reserves the fresh variable names shared by all cases.
func (rw *rewriter) allocateNames() {
	f := rw.fresh
	rw.vMe = f.Fresh("cc_me")
	rw.vNp = f.Fresh("cc_np")
	rw.vIerr = f.Fresh("cc_ierr")
	rw.vNreq = f.Fresh("cc_nreq")
	rw.vTile = f.Fresh("cc_tile")
	rw.vLo = f.Fresh("cc_lo")
	rw.vTo = f.Fresh("cc_to")
	rw.vFrom = f.Fresh("cc_from")
	rw.vJ = f.Fresh("cc_j")
	rw.vOff = f.Fresh("cc_off")
	rw.vReqs = f.Fresh("cc_reqs")
}

// declareInts appends an integer declaration for the named scalars.
func (rw *rewriter) declareInts(names ...string) {
	d := &ftn.Decl{Type: ftn.TypeSpec{Base: ftn.TInteger}}
	for _, n := range names {
		d.Entities = append(d.Entities, &ftn.Entity{Name: n})
	}
	rw.op.Unit.Decls = append(rw.op.Unit.Decls, d)
}

// declareReqArray appends "integer cc_reqs(1:n)".
func (rw *rewriter) declareReqArray(n int64) {
	d := &ftn.Decl{Type: ftn.TypeSpec{Base: ftn.TInteger}}
	d.Entities = append(d.Entities, &ftn.Entity{
		Name: rw.vReqs,
		Dims: []ftn.Dim{{Lo: ftn.Int(1), Hi: ftn.Int(n)}},
	})
	rw.op.Unit.Decls = append(rw.op.Unit.Decls, d)
}

// Common generated fragments.

// assign builds "name = expr".
func assign(name string, rhs ftn.Expr) ftn.Stmt {
	return &ftn.AssignStmt{LHS: ftn.Id(name), RHS: rhs}
}

// assignRef builds "ref = expr".
func assignRef(ref *ftn.Ref, rhs ftn.Expr) ftn.Stmt {
	return &ftn.AssignStmt{LHS: ref, RHS: rhs}
}

// call builds "call name(args)".
func call(name string, args ...ftn.Expr) ftn.Stmt {
	return &ftn.CallStmt{Name: name, Args: args}
}

// comment builds a preserved comment line.
func comment(text string) ftn.Stmt { return &ftn.CommentStmt{Text: "! " + text} }

// waitAllBlock builds:
//
//	if (nreq > 0) then
//	  call mpi_waitall(nreq, reqs, mpi_statuses_ignore, ierr)
//	  nreq = 0
//	endif
func (rw *rewriter) waitAllBlock() ftn.Stmt {
	return &ftn.IfStmt{
		Cond: ftn.Bin(">", ftn.Id(rw.vNreq), ftn.Int(0)),
		Then: []ftn.Stmt{
			call("mpi_waitall", ftn.Id(rw.vNreq), ftn.Id(rw.vReqs), ftn.Id("mpi_statuses_ignore"), ftn.Id(rw.vIerr)),
			assign(rw.vNreq, ftn.Int(0)),
		},
	}
}

// preLoopSetup builds the statements inserted immediately before ℓ:
// rank/size discovery, partition size, and per-execution counters.
func (rw *rewriter) preLoopSetup() []ftn.Stmt {
	return []ftn.Stmt{
		comment("pre-push setup (inserted by compuniformer)"),
		call("mpi_comm_rank", ftn.CloneExpr(rw.commExpr), ftn.Id(rw.vMe), ftn.Id(rw.vIerr)),
		call("mpi_comm_size", ftn.CloneExpr(rw.commExpr), ftn.Id(rw.vNp), ftn.Id(rw.vIerr)),
		assign(rw.vNreq, ftn.Int(0)),
		assign(rw.vTile, ftn.Int(0)),
	}
}

// incr builds "name = name + 1".
func incr(name string) ftn.Stmt {
	return assign(name, ftn.Add(ftn.Id(name), ftn.Int(1)))
}

// reqSlot returns "reqs(nreq)" (after an incr of nreq).
func (rw *rewriter) reqSlot() *ftn.Ref {
	return ftn.Call(rw.vReqs, ftn.Id(rw.vNreq))
}

// isend builds "nreq = nreq + 1; call mpi_isend(buf, count, type, to, tag, comm, reqs(nreq), ierr)".
func (rw *rewriter) isend(buf ftn.Expr, count ftn.Expr, to ftn.Expr) []ftn.Stmt {
	return []ftn.Stmt{
		incr(rw.vNreq),
		call("mpi_isend", buf, count, ftn.CloneExpr(rw.typeExpr), to,
			ftn.Id(rw.vTile), ftn.CloneExpr(rw.commExpr), rw.reqSlot(), ftn.Id(rw.vIerr)),
	}
}

// irecv builds the matching receive.
func (rw *rewriter) irecv(buf ftn.Expr, count ftn.Expr, from ftn.Expr) []ftn.Stmt {
	return []ftn.Stmt{
		incr(rw.vNreq),
		call("mpi_irecv", buf, count, ftn.CloneExpr(rw.typeExpr), from,
			ftn.Id(rw.vTile), ftn.CloneExpr(rw.commExpr), rw.reqSlot(), ftn.Id(rw.vIerr)),
	}
}

// spliceAroundL rewrites the parent statement list: inserts pre before ℓ,
// post after ℓ (and before C), and removes the original call C (§3.6 step 5).
func (rw *rewriter) spliceAroundL(pre, post []ftn.Stmt) {
	op := rw.op
	parent := *op.Parent
	var out []ftn.Stmt
	out = append(out, parent[:op.LIndex]...)
	out = append(out, pre...)
	out = append(out, parent[op.LIndex])
	out = append(out, post...)
	out = append(out, parent[op.LIndex+1:op.CallIndex]...)
	out = append(out, comment("original mpi_alltoall removed by compuniformer"))
	out = append(out, parent[op.CallIndex+1:]...)
	*op.Parent = out
}
