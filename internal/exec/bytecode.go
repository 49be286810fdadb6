// The register machine: every unit lowers once into a register-based flat
// instruction stream dispatched through a single switch (no closure trees,
// no map lookups on the hot path). The lowering (bcompile.go) performs
// compile-time constant folding, hoists folded constants and address
// geometry out of the loop body, batches cost-model charges per basic block
// into precomputed charge vectors, forwards scalar loads within a basic
// block, and eliminates bounds checks for subscripts proven in-range by
// internal/dep's affine algebra. A unit's stream starts with its frame
// setup (named constants, scalar and array declarations); a CALL of a user
// subroutine binds the actual arguments into a fresh frame and runs the
// callee's stream by a recursive bexec over a window of the rank's register
// stack; an MPI call hands interp.MPI accessors that run each actual
// argument's code range on demand, so the shared binding keeps evaluating,
// validating and charging in argument order; PRINT formats registers and
// literals. Everything is differentially proven against the walk oracle.
//
// Charge batching is sound because mpi.Rank.Compute is purely additive
// between observation points (netsim's Proc.Advance only accumulates):
// Compute(a)+Compute(b) == Compute(a+b) as long as no MPI operation, clock
// read, or error can occur between the two. The lowering flushes the
// pending charge vector before every instruction that can observe time,
// raise an error, or transfer control.
//
// Strip-wise loops (strip.go) rest on the same argument, one level up. An
// innermost DO loop is eligible when
//
//   - the lowering reads its DO variable from the loop's value register
//     (the body never stores it) and every value the body stores, every
//     array it touches and every subscript is statically integer;
//   - its body is straight-line integer code: bCharge, bNegI, bAddI, bSubI,
//     bMulI, bDivI, bPowI, bModI, bMinI, bMaxI, bLoadS, bStoreS, and array
//     loads and stores (checked or unchecked) of rank <= 3 — no jump, call,
//     PRINT, run-time-kinded op, comparison, bIntr, bWtime or nested loop;
//   - every frame cell it stores is stored before it is loaded (the cell is
//     private to an iteration; the last iteration's value is what remains,
//     as is the DO cell's final value);
//   - every array it stores is stored by exactly one instruction and never
//     loaded in the body.
//
// Such a loop contains no MPI call and no clock read, so under netsim's
// one-process-at-a-time scheduling no other rank and no event can observe
// the rank between the loop's first and last instruction: its iterations
// may run in any grouping as long as the frame, the arrays and the clock
// are the scalar loop's when it ends — or when it fails. The strip
// executor runs them stripLen at a time: compute every lane with no side
// effect, checking each lane of each divisor (non-zero) and each subscript
// (inside its dimension, the walker's Idx* rules) before the divide or
// load that uses it, and only then commit — array stores in lane order,
// the last lane's private scalars, and one Compute of lanes × the body's
// charge vectors, which additivity makes equal to the per-iteration
// charges. No value flows from one iteration to the next (private cells,
// stored arrays never read), so computing lane l before lane l−1 has
// committed reads what the scalar order reads. If any lane would fault,
// the strip has committed nothing: the loop registers still name its first
// lane and the unchanged scalar bexec replays it iteration by iteration,
// which stores, charges and raises the walker's positioned error exactly
// as if the strip executor did not exist. A loop entered with fewer than
// stripMin trips, and a remainder shorter than that, take the scalar path
// outright.
package exec

import (
	"math"

	"repro/internal/ftn"
	"repro/internal/interp"
	"repro/internal/netsim"
)

// reg is one VM register: a tagged scalar with no Go pointer in it, so a
// register write is a plain 16-byte store with no write barrier. Integers
// live in bits as two's complement, reals as their IEEE bit pattern,
// logicals as 0/1. Character values never enter a register — a program that
// can create one is not lowered at all — so interp.Value (the same payload
// word and kind, plus the pointer to character data) is only built at the
// edges: frame cells, MPI and PRINT arguments, and generic intrinsic calls.
type reg struct {
	bits uint64
	k    interp.Kind
}

func intReg(i int64) reg    { return reg{uint64(i), interp.KInt} }
func realReg(f float64) reg { return reg{math.Float64bits(f), interp.KReal} }
func boolReg(b bool) reg {
	if b {
		return reg{1, interp.KBool}
	}
	return reg{0, interp.KBool}
}

// toReg converts a frame cell or an intrinsic's result into a register. A
// character value here means CompileSource's predicate let a program that
// creates one through to the lowering: a bug, never an input condition.
func toReg(v interp.Value) reg {
	if v.Kind == interp.KStr {
		panic("exec: character value in a bytecode register")
	}
	return reg{uint64(v.I), v.Kind}
}

// value converts a register back into the oracle's scalar.
func (r reg) value() interp.Value { return interp.Value{I: int64(r.bits), Kind: r.k} }

// asInt is Value.AsInt: reals truncate toward zero, logicals read as 0.
func (r reg) asInt() int64 {
	switch r.k {
	case interp.KInt:
		return int64(r.bits)
	case interp.KReal:
		return int64(math.Float64frombits(r.bits))
	}
	return 0
}

// asReal is Value.AsReal: integers widen, logicals read as 0.
func (r reg) asReal() float64 {
	switch r.k {
	case interp.KInt:
		return float64(int64(r.bits))
	case interp.KReal:
		return math.Float64frombits(r.bits)
	}
	return 0
}

// bop is a bytecode opcode. Dispatch is a flat switch in bexec.
type bop uint8

const (
	// bCharge applies the precomputed charge vector a (one Compute call
	// covering a whole basic-block's worth of walker charges).
	bCharge  bop = iota
	bJmp         // pc = a
	bJF          // if !regs[b] { pc = a }   (cond statically KBool)
	bJT          // if regs[b]  { pc = a }
	bJFChk       // IF-cond form: non-KBool -> error; else like bJF
	bBoolChk     // if regs[a].k != KBool -> error
	bMove        // regs[a] = regs[b]
	bErr         // raise this pc's error
	bRet         // return errReturn
	bStop        // return errStop
	bExitS       // return errExit  (EXIT outside any loop of its unit)
	bCycleS      // return errCycle (CYCLE outside any loop of its unit)

	bLoadS  // regs[a] = *fr.scal[b]
	bStoreS // p := fr.scal[a]; *p = CoerceStore(*p, regs[b])

	// By-name scalar access, for a name whose cell the lowering cannot prove
	// exists (a dummy, a constant read before its initializer, a name that
	// is illegal under implicit none): the walker's resolution order and
	// its errors, decided against the frame at run time.
	bLoadN  // regs[a] = names[b] read as a scalar
	bStoreN // find or create names[a]'s cell, store regs[b] into it
	bCellN  // find or create names[a]'s cell (a DO variable's)
	bJArr   // if fr.arr[b] != nil { pc = a }: is the name an array here?

	// Frame setup, the head of every unit's stream.
	bSetConst // fr.consts[a] = CoerceDecl(base c, regs[b]), now visible
	bJCell    // if fr.scal[b] != nil { pc = a }: skip a kept cell's initializer
	bDeclS    // unless it exists, create cell a: base c's zero, or regs[b]
	bDeclA    // allocate (or view the caller's backing as) array decls[a]

	bCall  // call user subroutine calls[a]; errCycle -> pc=b, errExit -> pc=c (when >= 0)
	bMPI   // MPI call calls[a] through interp.MPI
	bPrint // append the line of prints[a] to the rank's output

	bNegI   // regs[a] = -regs[b]      (statically KInt)
	bNeg    // regs[a] = -regs[b]      (KInt -> int, else real)
	bNot    // regs[a] = !regs[b]      (statically KBool)
	bNotChk // non-KBool -> error; else like bNot

	// Integer fast-path arithmetic (operands statically proven KInt).
	bAddI
	bSubI
	bMulI
	bDivI // zero divisor -> error
	bPowI
	bModI // zero divisor -> error
	bMinI
	bMaxI
	bEqI
	bNeI
	bLtI
	bLeI
	bGtI
	bGeI

	// Generic arithmetic and comparison: integer when both operands are
	// KInt at run time, else Fortran's real promotion.
	bAdd
	bSub
	bMul
	bDiv // integer zero divisor -> error
	bPow
	bMod // two-argument mod; integer zero divisor -> error
	bEq
	bNe
	bLt
	bLe
	bGt
	bGe

	bLoadA   // checked array load: accs[b] -> regs[a]
	bStoreA  // checked array store: regs[b] -> accs[a]
	bLoadU1  // unchecked (BCE-proven) rank-1 load: geos[b] -> regs[a]
	bLoadU2  // rank 2
	bLoadU3  // rank 3
	bStoreU1 // unchecked rank-1 store: regs[b] -> geos[a]
	bStoreU2
	bStoreU3

	bIntr  // regs[a] = EvalIntrinsic(intrs[b])
	bWtime // regs[a] = rank.Now().Seconds()

	bForPrep // evaluate DO bounds/step, init loop registers: fors[a]
	bForIter // loop entry: store DO variable, test trip count: fors[a]
	bForNext // advance DO variable, then as bForIter; loops to the body

	// Probes: what a slice (slice.go) keeps of an element access whose
	// element it does not compute — the address, the bounds check and the
	// in-flight check (interp.Array.Probe).
	bProbeLA // checked load of accs[a]
	bProbeSA // checked store to accs[a]
	bProbeLU // unchecked load of geos[a], of rank c
	bProbeSU // unchecked store to geos[a], of rank c
)

// bins is one 16-byte instruction. Operand meaning is per-opcode (register
// indices, descriptor-table indices, or jump targets).
type bins struct {
	op      bop
	a, b, c int32
}

// accDesc is a checked array access (runtime Idx* bounds checks, exactly
// the walker's errors).
type accDesc struct {
	aslot int32
	subs  []int32
	pos   ftn.Pos
}

// geoDesc is a bounds-check-eliminated access of rank 1 to 3: the array's
// geometry folded at lowering time, so the element offset is
// base + Σ regs[sub[i]]·stride[i] with base = −Σ lo[i]·stride[i]. The
// subscript registers are statically KInt; stride[0] is always 1
// (column-major) and never read.
type geoDesc struct {
	aslot  int32
	kind   interp.Kind
	sub    [3]int32
	stride [3]int64
	base   int64
}

// intrDesc is an intrinsic call site.
type intrDesc struct {
	name string
	args []int32
	pos  ftn.Pos
}

// forDesc is one lowered DO loop. Loop state (current value, remaining
// trips, step) lives in registers; the DO variable's frame cell is updated
// at each iteration head exactly like the walker.
type forDesc struct {
	loReg, hiReg int32
	stepReg      int32 // -1: static step 1
	sslot        int32
	vReg         int32
	tripsReg     int32
	stepValReg   int32
	headPC       int32 // the bForIter
	endPC        int32
	// inner: no DO loop is nested inside. nvec > 0: the loop runs strip-wise
	// (strip.go) on that many lane vectors; -1: it does not. (0 marks a
	// candidate during lowering, settled by planStrips before any run.) In a
	// slice no loop runs strip-wise, and nvec > 0 marks one that folds.
	inner bool
	nvec  int32
	fold  *foldPlan
}

// precEntry pre-creates an implicitly-typed scalar cell after frame setup,
// so lowered loads/stores address the cell directly. Only names the walker
// would create with the same zero on first touch are eligible; cells that
// already exist (dummies, declared names) are left alone.
type precEntry struct {
	sslot int32
	zero  interp.Value
}

// nameDesc is one by-name use of a scalar: the name's slots and where the
// use stands, for the error.
type nameDesc struct {
	s   *sym
	pos ftn.Pos
}

// declDesc is one array declaration: per dimension the registers holding
// its evaluated lower and upper bound (-1: default 1, assumed size).
type declDesc struct {
	aslot int32
	name  string
	kind  interp.Kind
	dims  [][2]int32
	dummy bool // a dummy argument: view the caller's array if it passed one
	// shape: a slice's declaration of an array it never reads, allocated
	// with no elements (interp.NewShape).
	shape bool
	pos   ftn.Pos
}

// lazy is a code range lowered out of line — the instruction that owns it
// jumps over it — and run on demand through bexec: code[pc0:pc1] computes
// a value into reg, or stores reg to a designator, or computes subscripts.
type lazy struct{ pc0, pc1, reg int32 }

// run executes the range in the activation that owns it.
func (l lazy) run(bp *bprog, x *rctx, fr *frame, regs []reg) error {
	if l.pc0 == l.pc1 {
		return nil
	}
	return bp.bexec(x, fr, regs, int(l.pc0), int(l.pc1))
}

// argDesc is one actual argument of a CALL, lowered by what the callee or
// the MPI binding may ask of it.
type argDesc struct {
	val     lazy    // its value (user call: a by-value temporary)
	sto     lazy    // MPI: assign regs[sto.reg] to it
	subs    lazy    // a Ref's subscripts, left in subRegs
	subRegs []int32 // nil for an Ident
	aslot   int32   // an Ident's or a Ref's array slot, -1 when the name has none
	name    int32   // user call, Ident: names index of the cell to alias, else -1
	pos     ftn.Pos
}

// callDesc is one CALL site: a user subroutine resolved at lowering time,
// or an MPI routine of the shared binding.
type callDesc struct {
	sub  *unit
	mpi  *interp.MPIRoutine
	stmt *ftn.CallStmt
	args []argDesc
}

// printItem is a PRINT item: a register, or (reg < 0) a string literal.
type printItem struct {
	reg int32
	lit interp.Value
}

// bprog is the lowered form of one unit: code[:body] is its frame setup,
// the rest its body.
type bprog struct {
	code    []bins
	body    int
	nreg    int
	regInit []reg // folded constants, deduplicated by bit pattern
	prec    []precEntry
	// errAt holds the error a raising instruction returns, keyed by its pc;
	// it is consulted only on the failing path.
	errAt        map[int32]error
	implicitNone bool
	names        []nameDesc
	decls        []declDesc
	calls        []callDesc
	prints       [][]printItem
	accs         []accDesc
	geos         []geoDesc
	intrs        []intrDesc
	fors         []forDesc
	// lane maps a register to its lane vector inside the one strip-wise
	// loop that writes it, -1 for a scalar; nil when no loop is eligible.
	// aff marks the lane vectors that are affine in the lane (strip.go).
	lane []int32
	aff  []bool
}

// Charge-vector component indices: interp.CostModel's field order.
const (
	kOp = iota
	kAssign
	kStore
	kLoad
	kLoopIter
	kCall
)

// chargeVec counts the walker charges one bCharge stands for, by kind.
type chargeVec = interp.ChargeCounts

// chargeTab folds a cost model into the program's charge vectors: one
// virtual-time total per vector, computed once per run.
func (p *Program) chargeTab(costs interp.CostModel) []netsim.Time {
	tab := make([]netsim.Time, len(p.vecs))
	for i := range p.vecs {
		tab[i] = costs.Price(&p.vecs[i])
	}
	return tab
}

// enter runs the unit's frame setup in fr — from bp, the unit's lowered form
// or its slice — then binds the dummy arrays no declaration claimed (used as
// the caller shaped them) and pre-creates the implicit cells the body
// addresses directly.
func (u *unit) enter(x *rctx, bp *bprog, fr *frame, regs []reg) error {
	copy(regs, bp.regInit)
	if err := bp.bexec(x, fr, regs, 0, bp.body); err != nil {
		return err
	}
	for _, aslot := range u.paramArr {
		if fr.arr[aslot] == nil {
			fr.arr[aslot] = fr.dummy[aslot]
		}
	}
	for _, pe := range bp.prec {
		if fr.scal[pe.sslot] == nil {
			v := pe.zero
			fr.scal[pe.sslot] = &v
		}
	}
	return nil
}

// cell finds or (under implicit typing) creates the scalar cell of a name:
// the walker's lookupScalar.
func (bp *bprog) cell(fr *frame, d *nameDesc) (*interp.Value, error) {
	s := d.s
	if s.sslot >= 0 {
		if p := fr.scal[s.sslot]; p != nil {
			return p, nil
		}
	}
	if s.cslot >= 0 && fr.constSet[s.cslot] {
		return nil, rte(d.pos, "cannot assign to named constant %s", s.name)
	}
	if bp.implicitNone {
		return nil, rte(d.pos, "undeclared variable %s under implicit none", s.name)
	}
	v := s.zero
	fr.scal[s.sslot] = &v
	return &v, nil
}

// loadName reads a name as a scalar in the walker's resolution order: named
// constant (once its initializer ran), cell, MPI constant, whole-array
// error, implicit-none error, implicit creation.
func (bp *bprog) loadName(fr *frame, d *nameDesc) (interp.Value, error) {
	s := d.s
	if s.cslot >= 0 && fr.constSet[s.cslot] {
		return fr.consts[s.cslot], nil
	}
	if s.sslot >= 0 {
		if p := fr.scal[s.sslot]; p != nil {
			return *p, nil
		}
	}
	if s.isMPI {
		return interp.IntVal(s.mpi), nil
	}
	if s.aslot >= 0 && fr.arr[s.aslot] != nil {
		return interp.Value{}, rte(d.pos, "whole-array reference %s in scalar context", s.name)
	}
	if bp.implicitNone {
		return interp.Value{}, rte(d.pos, "undeclared name %s", s.name)
	}
	v := s.zero
	fr.scal[s.sslot] = &v
	return v, nil
}

// declArray executes an array declaration: bounds from their registers, then
// a view of the caller's backing (a dummy that was passed an array) or a
// new array over storage rc lends (nil: fresh) — which also replaces an
// earlier declaration's.
func (d *declDesc) declArray(fr *frame, regs []reg, rc *interp.Recycler) error {
	bounds := make([]interp.DimBound, len(d.dims))
	for i, dim := range d.dims {
		bounds[i].Lo = 1
		if dim[0] >= 0 {
			bounds[i].Lo = regs[dim[0]].asInt()
		}
		if dim[1] < 0 {
			bounds[i].Assumed = true
		} else {
			bounds[i].Hi = regs[dim[1]].asInt()
		}
	}
	var a *interp.Array
	var err error
	switch {
	case d.dummy && fr.dummy[d.aslot] != nil:
		a, err = interp.View(d.name, fr.dummy[d.aslot], 0, bounds)
	case d.shape:
		a, err = interp.NewShape(d.name, d.kind, bounds)
	default:
		a, err = rc.NewArray(d.name, d.kind, bounds)
	}
	if err != nil {
		return rte(d.pos, "%v", err)
	}
	fr.arr[d.aslot] = a
	return nil
}

// storeCell assigns r to a scalar cell with the cell's conversion.
func storeCell(p *interp.Value, r reg) {
	switch p.Kind {
	case interp.KInt:
		*p = interp.IntVal(r.asInt())
	case interp.KReal:
		*p = interp.RealVal(r.asReal())
	default:
		*p = interp.CoerceStore(*p, r.value())
	}
}

// ints reads registers as subscripts into the rank's scratch slice.
func (x *rctx) ints(regs []reg, rs []int32) []int64 {
	x.subs = x.subs[:0]
	for _, r := range rs {
		x.subs = append(x.subs, regs[r].asInt())
	}
	return x.subs
}

// callUser executes CALL site d of a user subroutine with Fortran reference
// semantics (the walker's callUser): each actual is bound in order — an
// identifier as the array it holds, else its aliased cell; an element of an
// array as a sequence-association view from that element on; anything else
// as a temporary the callee may write — then the callee's stream runs in
// the new frame. RETURN ends the callee; STOP and a stray EXIT or CYCLE
// pass through to the caller.
func (bp *bprog) callUser(x *rctx, fr *frame, regs []reg, d *callDesc) error {
	sub := d.sub
	nfr := sub.newFrame()
	for i := range d.args {
		a := &d.args[i]
		var arr *interp.Array
		if a.aslot >= 0 {
			arr = fr.arr[a.aslot]
		}
		switch {
		case arr != nil && a.subRegs == nil:
			nfr.dummy[sub.paramArr[i]] = arr
		case arr != nil:
			if err := a.subs.run(bp, x, fr, regs); err != nil {
				return err
			}
			off, err := arr.Linear(x.ints(regs, a.subRegs))
			if err != nil {
				return err
			}
			view, err := interp.View(sub.params[i], arr, off, []interp.DimBound{{Lo: 1, Assumed: true}})
			if err != nil {
				return rte(a.pos, "%v", err)
			}
			nfr.dummy[sub.paramArr[i]] = view
		case a.name >= 0:
			p, err := bp.cell(fr, &bp.names[a.name])
			if err != nil {
				return err
			}
			nfr.scal[sub.paramScal[i]] = p // alias: writes are visible to the caller
		default:
			if err := a.val.run(bp, x, fr, regs); err != nil {
				return err
			}
			v := regs[a.val.reg].value()
			nfr.scal[sub.paramScal[i]] = &v
		}
	}
	base := x.top
	sbp := x.form(sub)
	cregs := x.window(sbp.nreg)
	err := sub.enter(x, sbp, nfr, cregs)
	if err == nil {
		err = sbp.bexec(x, nfr, cregs, sbp.body, len(sbp.code))
	}
	x.top = base
	if err == errReturn {
		err = nil
	}
	return err
}

// mpiSite is the MPI call a rank is executing: its arguments' descriptors
// and the activation their code ranges run in. MPI calls do not nest, so
// the rctx carries one and serves as the call's interp.MPIArgs without
// allocating.
type mpiSite struct {
	bp   *bprog
	fr   *frame
	regs []reg
	args []argDesc
}

func (x *rctx) runLazy(l lazy) error {
	return l.run(x.site.bp, x, x.site.fr, x.site.regs)
}

// Value implements interp.MPIArgs.
func (x *rctx) Value(i int) (interp.Value, error) {
	a := &x.site.args[i]
	if err := x.runLazy(a.val); err != nil {
		return interp.Value{}, err
	}
	return x.site.regs[a.val.reg].value(), nil
}

// Store implements interp.MPIArgs.
func (x *rctx) Store(i int, v interp.Value) error {
	a := &x.site.args[i]
	x.site.regs[a.sto.reg] = toReg(v)
	return x.runLazy(a.sto)
}

// Buffer implements interp.MPIArgs.
func (x *rctx) Buffer(i int) (*interp.Array, []int64, error) {
	a := &x.site.args[i]
	if a.aslot < 0 {
		return nil, nil, nil
	}
	arr := x.site.fr.arr[a.aslot]
	if arr == nil || a.subRegs == nil {
		return arr, nil, nil
	}
	if err := x.runLazy(a.subs); err != nil {
		return nil, nil, err
	}
	// The binding consumes the subscripts before it asks for anything else,
	// so one scratch slice per rank serves every call.
	return arr, x.ints(x.site.regs, a.subRegs), nil
}

// loadElem reads the element at linear offset off of an array whose storage
// kind is kind (Array.RawGet without the Value). It and storeElem stay leaf
// functions, with no stack check: their callers check the access against
// the watched buffers (Array.NoteLoad, NoteStore).
func loadElem(a *interp.Array, kind interp.Kind, off int64) reg {
	switch kind {
	case interp.KReal:
		return realReg(a.RealAt(off))
	case interp.KBool:
		return boolReg(a.IntAt(off) != 0)
	}
	return intReg(a.IntAt(off))
}

// storeElem writes r at linear offset off with the storage's conversion
// (Array.RawSet without the Value): reals widen, integers truncate, a
// logical array stores true only for a true logical.
func storeElem(a *interp.Array, kind interp.Kind, off int64, r reg) {
	switch kind {
	case interp.KReal:
		a.SetRealAt(off, r.asReal())
	case interp.KBool:
		var v int64
		if r.k == interp.KBool && r.bits != 0 {
			v = 1
		}
		a.SetIntAt(off, v)
	default:
		a.SetIntAt(off, r.asInt())
	}
}

// checkedOff resolves a checked access's subscripts through the walker's
// bounds rules (Array.Idx*/Linear), returning the linear offset.
func (d *accDesc) checkedOff(a *interp.Array, regs []reg) (int64, error) {
	var off int64
	var err error
	switch len(d.subs) {
	case 1:
		off, err = a.Idx1(regs[d.subs[0]].asInt())
	case 2:
		off, err = a.Idx2(regs[d.subs[0]].asInt(), regs[d.subs[1]].asInt())
	case 3:
		off, err = a.Idx3(regs[d.subs[0]].asInt(), regs[d.subs[1]].asInt(), regs[d.subs[2]].asInt())
	default:
		ix := make([]int64, len(d.subs))
		for i, sr := range d.subs {
			ix[i] = regs[sr].asInt()
		}
		off, err = a.Linear(ix)
	}
	if err != nil {
		return 0, rte(d.pos, "%v", err)
	}
	return off, nil
}

// arithRegs is the generic arithmetic of NumericBinop and of two-argument
// mod: integer when both operands are integers at run time, else Fortran's
// real promotion. ok is false for an integer division or mod by zero.
func arithRegs(op bop, x, y reg) (v reg, ok bool) {
	if x.k == interp.KInt && y.k == interp.KInt {
		a, b := int64(x.bits), int64(y.bits)
		switch op {
		case bAdd:
			return intReg(a + b), true
		case bSub:
			return intReg(a - b), true
		case bMul:
			return intReg(a * b), true
		case bPow:
			return intReg(interp.PowInt(a, b)), true
		}
		if b == 0 {
			return reg{}, false
		}
		if op == bDiv {
			return intReg(a / b), true
		}
		return intReg(a % b), true
	}
	a, b := x.asReal(), y.asReal()
	switch op {
	case bAdd:
		return realReg(a + b), true
	case bSub:
		return realReg(a - b), true
	case bMul:
		return realReg(a * b), true
	case bDiv:
		return realReg(a / b), true
	case bPow:
		return realReg(math.Pow(a, b)), true
	}
	return realReg(math.Mod(a, b)), true
}

// compareRegs is the generic comparison of interp.Compare (minus strings,
// which never reach a register): integers compare as integers, anything
// else as reals.
func compareRegs(op bop, x, y reg) bool {
	if x.k == interp.KInt && y.k == interp.KInt {
		a, b := int64(x.bits), int64(y.bits)
		switch op {
		case bEq:
			return a == b
		case bNe:
			return a != b
		case bLt:
			return a < b
		case bLe:
			return a <= b
		case bGt:
			return a > b
		}
		return a >= b
	}
	a, b := x.asReal(), y.asReal()
	switch op {
	case bEq:
		return a == b
	case bNe:
		return a != b
	case bLt:
		return a < b
	case bLe:
		return a <= b
	case bGt:
		return a > b
	}
	return a >= b
}

// bexec is the dispatch loop: a flat switch over the instruction stream.
// No reflection, no map lookups on any path that continues — descriptor
// tables are slices indexed by instruction operands, and errAt is read only
// by the instruction that ends the run. It runs code[pc:end]: a unit's
// setup or body, an argument's lazy range, or one invariant instruction of a
// strip-wise loop.
func (bp *bprog) bexec(x *rctx, fr *frame, regs []reg, pc, end int) error {
	code, tab := bp.code, x.tab
	for pc < end {
		ins := code[pc]
		pc++
		switch ins.op {
		case bCharge:
			x.rank.Compute(tab[ins.a])
			if x.trace != nil {
				x.trace.Charge(&x.prog.vecs[ins.a], 1)
			}
		case bJmp:
			pc = int(ins.a)
		case bJF:
			if regs[ins.b].bits == 0 {
				pc = int(ins.a)
			}
		case bJT:
			if regs[ins.b].bits != 0 {
				pc = int(ins.a)
			}
		case bJFChk:
			c := regs[ins.b]
			if c.k != interp.KBool {
				return bp.errAt[int32(pc-1)]
			}
			if c.bits == 0 {
				pc = int(ins.a)
			}
		case bBoolChk:
			if regs[ins.a].k != interp.KBool {
				return bp.errAt[int32(pc-1)]
			}
		case bMove:
			regs[ins.a] = regs[ins.b]
		case bErr:
			return bp.errAt[int32(pc-1)]
		case bRet:
			return errReturn
		case bStop:
			return errStop
		case bExitS:
			return errExit
		case bCycleS:
			return errCycle
		case bLoadS:
			regs[ins.a] = toReg(*fr.scal[ins.b])
		case bStoreS:
			storeCell(fr.scal[ins.a], regs[ins.b])
		case bLoadN:
			v, err := bp.loadName(fr, &bp.names[ins.b])
			if err != nil {
				return err
			}
			regs[ins.a] = toReg(v)
		case bStoreN:
			p, err := bp.cell(fr, &bp.names[ins.a])
			if err != nil {
				return err
			}
			storeCell(p, regs[ins.b])
		case bCellN:
			if _, err := bp.cell(fr, &bp.names[ins.a]); err != nil {
				return err
			}
		case bJArr:
			if fr.arr[ins.b] != nil {
				pc = int(ins.a)
			}
		case bSetConst:
			fr.consts[ins.a] = interp.CoerceDecl(ftn.BaseType(ins.c), regs[ins.b].value())
			fr.constSet[ins.a] = true
		case bJCell:
			if fr.scal[ins.b] != nil {
				pc = int(ins.a)
			}
		case bDeclS:
			if fr.scal[ins.a] != nil {
				break
			}
			base := ftn.BaseType(ins.c)
			v := interp.ZeroOf(interp.KindOf(base))
			if ins.b >= 0 {
				v = interp.CoerceDecl(base, regs[ins.b].value())
			}
			fr.scal[ins.a] = &v
		case bDeclA:
			if err := bp.decls[ins.a].declArray(fr, regs, x.mem); err != nil {
				return err
			}
		case bMPI:
			d := &bp.calls[ins.a]
			x.site = mpiSite{bp: bp, fr: fr, regs: regs, args: d.args}
			if err := x.mpi.Call(d.mpi, d.stmt, x); err != nil {
				return err
			}
		case bPrint:
			items := bp.prints[ins.a]
			vals := make([]interp.Value, len(items))
			for i, it := range items {
				if it.reg < 0 {
					vals[i] = it.lit
				} else {
					vals[i] = regs[it.reg].value()
				}
			}
			x.out = append(x.out, interp.FormatPrintLine(vals))
		case bCall:
			// A sentinel escaping the callee re-enters the caller's innermost
			// loop, exactly as the walker's execDo catches it.
			err := bp.callUser(x, fr, regs, &bp.calls[ins.a])
			switch err {
			case nil:
			case errCycle:
				if ins.b >= 0 {
					pc = int(ins.b)
					continue
				}
				return err
			case errExit:
				if ins.c >= 0 {
					pc = int(ins.c)
					continue
				}
				return err
			default:
				return err
			}
		case bNegI:
			regs[ins.a] = reg{-regs[ins.b].bits, interp.KInt}
		case bNeg:
			if v := regs[ins.b]; v.k == interp.KInt {
				regs[ins.a] = reg{-v.bits, interp.KInt}
			} else {
				regs[ins.a] = realReg(-v.asReal())
			}
		case bNot:
			regs[ins.a] = reg{regs[ins.b].bits ^ 1, interp.KBool}
		case bNotChk:
			v := regs[ins.b]
			if v.k != interp.KBool {
				return bp.errAt[int32(pc-1)]
			}
			regs[ins.a] = reg{v.bits ^ 1, interp.KBool}
		case bAddI:
			regs[ins.a] = reg{regs[ins.b].bits + regs[ins.c].bits, interp.KInt}
		case bSubI:
			regs[ins.a] = reg{regs[ins.b].bits - regs[ins.c].bits, interp.KInt}
		case bMulI:
			regs[ins.a] = reg{regs[ins.b].bits * regs[ins.c].bits, interp.KInt}
		case bDivI:
			d := int64(regs[ins.c].bits)
			if d == 0 {
				return bp.errAt[int32(pc-1)]
			}
			regs[ins.a] = intReg(int64(regs[ins.b].bits) / d)
		case bPowI:
			regs[ins.a] = intReg(interp.PowInt(int64(regs[ins.b].bits), int64(regs[ins.c].bits)))
		case bModI:
			d := int64(regs[ins.c].bits)
			if d == 0 {
				return bp.errAt[int32(pc-1)]
			}
			regs[ins.a] = intReg(int64(regs[ins.b].bits) % d)
		case bMinI:
			a, b := regs[ins.b], regs[ins.c]
			if int64(b.bits) < int64(a.bits) {
				a = b
			}
			regs[ins.a] = a
		case bMaxI:
			a, b := regs[ins.b], regs[ins.c]
			if int64(b.bits) > int64(a.bits) {
				a = b
			}
			regs[ins.a] = a
		case bEqI:
			regs[ins.a] = boolReg(regs[ins.b].bits == regs[ins.c].bits)
		case bNeI:
			regs[ins.a] = boolReg(regs[ins.b].bits != regs[ins.c].bits)
		case bLtI:
			regs[ins.a] = boolReg(int64(regs[ins.b].bits) < int64(regs[ins.c].bits))
		case bLeI:
			regs[ins.a] = boolReg(int64(regs[ins.b].bits) <= int64(regs[ins.c].bits))
		case bGtI:
			regs[ins.a] = boolReg(int64(regs[ins.b].bits) > int64(regs[ins.c].bits))
		case bGeI:
			regs[ins.a] = boolReg(int64(regs[ins.b].bits) >= int64(regs[ins.c].bits))
		case bAdd, bSub, bMul, bDiv, bPow, bMod:
			v, ok := arithRegs(ins.op, regs[ins.b], regs[ins.c])
			if !ok {
				return bp.errAt[int32(pc-1)]
			}
			regs[ins.a] = v
		case bEq, bNe, bLt, bLe, bGt, bGe:
			regs[ins.a] = boolReg(compareRegs(ins.op, regs[ins.b], regs[ins.c]))
		case bLoadA:
			d := &bp.accs[ins.b]
			a := fr.arr[d.aslot]
			off, err := d.checkedOff(a, regs)
			if err != nil {
				return err
			}
			regs[ins.a] = loadElem(a, a.Kind(), off)
			a.NoteLoad(off)
		case bStoreA:
			d := &bp.accs[ins.a]
			a := fr.arr[d.aslot]
			off, err := d.checkedOff(a, regs)
			if err != nil {
				return err
			}
			storeElem(a, a.Kind(), off, regs[ins.b])
			a.NoteStore(off)
		case bLoadU1:
			g := &bp.geos[ins.b]
			a, off := fr.arr[g.aslot], g.base+int64(regs[g.sub[0]].bits)
			regs[ins.a] = loadElem(a, g.kind, off)
			a.NoteLoad(off)
		case bLoadU2:
			g := &bp.geos[ins.b]
			a, off := fr.arr[g.aslot], g.base+int64(regs[g.sub[0]].bits)+int64(regs[g.sub[1]].bits)*g.stride[1]
			regs[ins.a] = loadElem(a, g.kind, off)
			a.NoteLoad(off)
		case bLoadU3:
			g := &bp.geos[ins.b]
			a, off := fr.arr[g.aslot], g.base+int64(regs[g.sub[0]].bits)+
				int64(regs[g.sub[1]].bits)*g.stride[1]+int64(regs[g.sub[2]].bits)*g.stride[2]
			regs[ins.a] = loadElem(a, g.kind, off)
			a.NoteLoad(off)
		case bStoreU1:
			g := &bp.geos[ins.a]
			a, off := fr.arr[g.aslot], g.base+int64(regs[g.sub[0]].bits)
			storeElem(a, g.kind, off, regs[ins.b])
			a.NoteStore(off)
		case bStoreU2:
			g := &bp.geos[ins.a]
			a, off := fr.arr[g.aslot], g.base+int64(regs[g.sub[0]].bits)+int64(regs[g.sub[1]].bits)*g.stride[1]
			storeElem(a, g.kind, off, regs[ins.b])
			a.NoteStore(off)
		case bStoreU3:
			g := &bp.geos[ins.a]
			a, off := fr.arr[g.aslot], g.base+int64(regs[g.sub[0]].bits)+
				int64(regs[g.sub[1]].bits)*g.stride[1]+int64(regs[g.sub[2]].bits)*g.stride[2]
			storeElem(a, g.kind, off, regs[ins.b])
			a.NoteStore(off)
		case bIntr:
			d := &bp.intrs[ins.b]
			vals := x.vals[:0]
			for _, ar := range d.args {
				vals = append(vals, regs[ar].value())
			}
			x.vals = vals
			v, err := interp.EvalIntrinsic(d.name, vals)
			if err != nil {
				return rte(d.pos, "%v", err)
			}
			regs[ins.a] = toReg(v)
		case bWtime:
			regs[ins.a] = realReg(x.rank.Now().Seconds())
		case bProbeLA, bProbeSA:
			d := &bp.accs[ins.a]
			a := fr.arr[d.aslot]
			off, err := d.checkedOff(a, regs)
			if err != nil {
				return err
			}
			if err := a.Probe(off, ins.op == bProbeSA); err != nil {
				return err
			}
		case bProbeLU, bProbeSU:
			g := &bp.geos[ins.a]
			off := g.base + int64(regs[g.sub[0]].bits)
			for i := int32(1); i < ins.c; i++ {
				off += int64(regs[g.sub[i]].bits) * g.stride[i]
			}
			if err := fr.arr[g.aslot].Probe(off, ins.op == bProbeSU); err != nil {
				return err
			}
		case bForPrep:
			fd := &bp.fors[ins.a]
			lo := regs[fd.loReg].asInt()
			hi := regs[fd.hiReg].asInt()
			step := int64(1)
			if fd.stepReg >= 0 {
				step = regs[fd.stepReg].asInt()
				if step == 0 {
					return bp.errAt[int32(pc-1)]
				}
			}
			trips := (hi - lo + step) / step
			if trips < 0 {
				trips = 0
			}
			regs[fd.vReg] = intReg(lo)
			regs[fd.tripsReg] = intReg(trips)
			regs[fd.stepValReg] = intReg(step)
		case bForIter, bForNext:
			fd := &bp.fors[ins.a]
			if ins.op == bForNext {
				regs[fd.vReg].bits += regs[fd.stepValReg].bits
			} else if fd.inner {
				// Loop entry: whole strips first; whatever they leave (all
				// of it for an ineligible loop) runs below, one iteration
				// at a time.
				var strips int64
				if fd.nvec > 0 {
					strips = bp.runStrips(x, fr, regs, fd)
				}
				if left := int64(regs[fd.tripsReg].bits); fr == x.main {
					x.stripIters += strips
					x.scalarIters += left
				} else {
					x.calleeIters += strips + left
				}
			}
			*fr.scal[fd.sslot] = interp.IntVal(int64(regs[fd.vReg].bits))
			if regs[fd.tripsReg].bits == 0 {
				pc = int(fd.endPC)
				continue
			}
			regs[fd.tripsReg].bits--
			pc = int(fd.headPC) + 1
		}
	}
	return nil
}
