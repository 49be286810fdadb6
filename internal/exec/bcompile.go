// Lowering from a unit's AST + symbol table to bytecode. The lowering is
// total and never fails: every unit, statement and expression of a program
// without character values has a native form, and whatever the walker would
// reject at run time lowers to an instruction raising the same positioned
// error, so the result is bit-identical to the walk oracle on every path. (A
// program that can create a character value never gets here: CompileSource
// marks it not lowered and RunBytecode runs the walker on its source.)
//
// Compile-time work:
//   - constant folding: parameter constants, MPI named constants, and any
//     arithmetic over them fold into deduplicated initialized registers
//     (folded constants are materialized once per activation — the
//     loop-invariant form of every constant subexpression);
//   - charge batching: walker cost charges accumulate into per-basic-block
//     charge vectors, flushed as one Compute call (bCharge);
//   - bounds-check elimination: subscripts affine in statically-ranged DO
//     variables (internal/dep's algebra) against statically-folded array
//     geometry compile to unchecked offset arithmetic (bLoadU/bStoreU)
//     with the address geometry (lower bounds, strides) hoisted to the
//     descriptor at compile time;
//   - static kind analysis: scalars and arrays with stable runtime kinds
//     get integer fast-path opcodes (bAddI, bLtI, ...), with DO-variable
//     writes and call-site aliasing poisoning unstable kinds;
//   - scalar load forwarding: within a basic block a second read of a
//     scalar whose cell cannot have been stored since reuses the first
//     read's register, and a DO variable its body never stores is read
//     straight from the loop's value register;
//   - charge merging: an integer division or mod whose divisor folds to a
//     non-zero constant cannot raise, so it no longer splits the block's
//     charge vector.
package exec

import (
	"fmt"

	"repro/internal/dep"
	"repro/internal/ftn"
	"repro/internal/interp"
)

// kUnknown marks a statically-unknown runtime kind.
const kUnknown interp.Kind = 0xff

// Bytecode lowers every unit of the program, at most once per Program, and
// returns the main unit's form — nil for a program that is not lowered.
func (p *Program) Bytecode() *bprog {
	if p.routed != "" {
		return nil
	}
	p.bcOnce.Do(func() {
		vecMap := map[chargeVec]int32{}
		lowerUnit(p, p.main, vecMap)
		for _, u := range p.subs {
			lowerUnit(p, u, vecMap)
			p.nreg = max(p.nreg, u.bp.nreg)
		}
		p.nreg += p.main.bp.nreg
	})
	return p.main.bp
}

// arrGeo is the static shape knowledge for one array slot.
type arrGeo struct {
	aslot int32
	// static geometry; nil slices when only non-nilness is proven
	lo, hi, stride []int64
	kind           interp.Kind
}

// factRange is a DO variable's statically-proven value range inside its
// loop body.
type factRange struct{ lo, hi int64 }

// rv is a lowered expression: its result register and statically-known
// kind. konst marks an interned constant, whose value is bp.regInit[reg].
type rv struct {
	reg   int32
	k     interp.Kind
	konst bool
}

// loopFrame tracks patch targets while lowering one DO body.
type loopFrame struct {
	exitPatches []int32 // bJmp pcs needing endPC
	contPatches []int32 // bJmp pcs needing contPC
	callPatches []int32 // bCall pcs needing (contPC, endPC)
}

// bc is the lowering state for one unit.
type bc struct {
	p  *Program
	c  *comp
	bp *bprog

	nreg      int32
	constRegs map[reg]int32
	vecMap    map[chargeVec]int32 // program-wide: index into p.vecs
	pending   chargeVec

	// setup is set while the unit's frame setup is lowered: no cell and no
	// array is known to exist yet, a named constant is visible only once
	// its own initializer has been lowered, and every name resolves at run
	// time.
	setup bool

	// avail maps a scalar name to the register holding its cell's current
	// value, valid to the end of the basic block being lowered; loopRegs
	// maps the DO variable of each enclosing loop whose body never stores
	// it to the loop's value register.
	avail    map[string]int32
	loopRegs map[string]int32

	foldConst map[string]interp.Value // folded named-constant values
	mpiName   map[string]bool         // MPI constants safe to fold in the body
	mpiSetup  map[string]bool         // MPI constants safe to fold during setup
	kills     map[string]bool         // scalar names stored anywhere in the unit
	poisoned  map[string]bool         // names whose cell kind may change at runtime
	declScal  map[string]interp.Kind  // first non-param scalar decl kind
	isParam   map[string]bool
	early     map[string]bool // names setup reads by name: the read may create the cell
	cellSet   map[string]bool // cell guaranteed to exist when the body runs
	scalK     map[string]interp.Kind
	arrInfo   map[string]*arrGeo
	intConsts map[string]int64
	facts     map[string]factRange
	loops     []*loopFrame

	// nonInt counts the lowered stores, array accesses and subscripts not
	// statically integer; a loop body that moves it cannot run strip-wise.
	nonInt int
	scan   stripScan
}

// lowerUnit lowers one unit in the walker's order: named constants, then
// scalar and array declarations, then the body.
func lowerUnit(p *Program, u *unit, vecMap map[chargeVec]int32) {
	c := u.cm
	b := &bc{
		p:         p,
		c:         c,
		bp:        &bprog{errAt: map[int32]error{}, implicitNone: c.implicitNone},
		constRegs: map[reg]int32{},
		vecMap:    vecMap,
		avail:     map[string]int32{},
		loopRegs:  map[string]int32{},
		foldConst: map[string]interp.Value{},
		mpiName:   map[string]bool{},
		mpiSetup:  map[string]bool{},
		kills:     map[string]bool{},
		poisoned:  map[string]bool{},
		declScal:  map[string]interp.Kind{},
		isParam:   map[string]bool{},
		early:     map[string]bool{},
		cellSet:   map[string]bool{},
		scalK:     map[string]interp.Kind{},
		arrInfo:   map[string]*arrGeo{},
		intConsts: map[string]int64{},
		facts:     map[string]factRange{},
	}
	u.bp = b.bp
	b.setup = true
	b.scanNames()
	b.lowerConsts()
	b.lowerDecls()
	b.flush()
	b.scanShapes()
	b.setup = false
	b.bp.body = int(b.here())
	for _, st := range c.u.Body {
		b.stmt(st)
	}
	b.flush()
	b.bp.nreg = int(b.nreg)
	b.planStrips()
}

// --- static analysis ---

// scanNames gathers what the unit's names allow before anything is lowered:
// which cells are ever stored, which declarations fix a cell's kind, which
// MPI constants can never be shadowed.
func (b *bc) scanNames() {
	u := b.c.u
	for _, p := range u.Params {
		b.isParam[p] = true
	}
	eachKill(u.Body, func(name string, wholesale bool) {
		b.kills[name] = true
		if wholesale {
			b.poisoned[name] = true
		}
	})

	// The first non-param scalar decl fixes the cell kind (later decls keep
	// the existing cell).
	hasDeclEntity := map[string]bool{}
	for _, d := range u.Decls {
		for _, e := range d.Entities {
			hasDeclEntity[e.Name] = true
			if d.Parameter || len(d.DimsOf(e)) > 0 {
				continue
			}
			if _, seen := b.declScal[e.Name]; !seen {
				b.declScal[e.Name] = declKind(d.Type.Base, e.Init)
			}
		}
	}

	// MPI named constants fold when nothing can ever shadow them: no
	// declaration, not a dummy, and (for body reads) never stored.
	for _, s := range b.c.order {
		if !s.isMPI || hasDeclEntity[s.name] || b.isParam[s.name] {
			continue
		}
		b.mpiSetup[s.name] = true
		if !b.kills[s.name] {
			b.mpiName[s.name] = true
			b.intConsts[s.name] = s.mpi
		}
	}
}

// lowerConsts lowers pass 1 of frame setup — the named constants'
// initializers, in declaration order — and folds the ones it can as it
// goes, so an initializer sees exactly the constants the walker's frame
// holds at that point: a forward reference (which the walker resolves to an
// implicit zero mid-setup) marks the constant unfoldable rather than
// guessing.
func (b *bc) lowerConsts() {
	unfoldable := map[string]bool{}
	for _, d := range b.c.u.Decls {
		if !d.Parameter {
			continue
		}
		for _, e := range d.Entities {
			if e.Init == nil {
				continue
			}
			v := b.expr(e.Init)
			b.emit(bSetConst, int32(b.c.syms[e.Name].cslot), v.reg, int32(d.Type.Base))
			if !v.konst || unfoldable[e.Name] {
				delete(b.foldConst, e.Name)
				unfoldable[e.Name] = true
				continue
			}
			b.foldConst[e.Name] = interp.CoerceDecl(d.Type.Base, b.bp.regInit[v.reg].value())
		}
	}
	for n, v := range b.foldConst {
		if v.Kind == interp.KInt {
			b.intConsts[n] = v.I
		}
	}
}

// scanShapes settles, with setup lowered and every constant folded, what the
// body may assume once setup has run: array geometry, which cells exist, and
// their kinds.
func (b *bc) scanShapes() {
	u := b.c.u
	// Array geometry: a name with a non-param array decl is non-nil after
	// setup (the last decl's allocation wins, a dummy's is a view of the
	// caller's backing of unknown kind and shape); statically-foldable dims
	// of a local give BCE geometry (column-major strides, exactly
	// NewArray's layout).
	for _, d := range u.Decls {
		if d.Parameter {
			continue
		}
		for _, e := range d.Entities {
			dims := d.DimsOf(e)
			if len(dims) == 0 {
				continue
			}
			g := &arrGeo{aslot: int32(b.c.syms[e.Name].aslot), kind: kUnknown}
			b.arrInfo[e.Name] = g // last decl wins
			if b.isParam[e.Name] {
				continue
			}
			g.kind = storageKind(d.Type.Base)
			static := true
			stride := int64(1)
			for _, dim := range dims {
				lo := int64(1)
				if dim.Lo != nil {
					v, _, ok := b.fold(dim.Lo)
					if !ok {
						static = false
						break
					}
					lo = v.AsInt()
				}
				if dim.Hi == nil {
					static = false // assumed-size: setup errors anyway
					break
				}
				hv, _, ok := b.fold(dim.Hi)
				if !ok {
					static = false
					break
				}
				hi := hv.AsInt()
				if hi-lo+1 < 0 {
					static = false
					break
				}
				g.lo = append(g.lo, lo)
				g.hi = append(g.hi, hi)
				g.stride = append(g.stride, stride)
				stride *= hi - lo + 1
			}
			if !static {
				g.lo, g.hi, g.stride = nil, nil, nil
			}
		}
	}

	// Cell existence and static kinds. A cell is sure when a non-param
	// scalar decl creates it during setup, or when the name is eligible
	// for pre-creation (the walker would lazily create the same cell).
	for _, s := range b.c.order {
		name := s.name
		if k, ok := b.declScal[name]; ok {
			b.cellSet[name] = true
			if b.isParam[name] || b.early[name] {
				// A dummy's cell is the caller's, of any kind; a cell an
				// initializer's forward reference created before the
				// declaration ran has its implicit type, and is kept.
				k = kUnknown
			}
			b.scalK[name] = k
			continue
		}
		if s.sslot >= 0 && s.cslot < 0 && s.aslot < 0 && !s.isMPI && !b.isParam[name] {
			b.cellSet[name] = true
			b.scalK[name] = s.zero.Kind
			b.bp.prec = append(b.bp.prec, precEntry{sslot: int32(s.sslot), zero: s.zero})
		}
	}
	// Poisoning: DO-variable writes store IntVal wholesale and call-site
	// aliasing lets callees do the same, so only KInt survives (CoerceStore
	// preserves an integer cell's kind and IntVal writes keep it).
	for name := range b.poisoned {
		if k, ok := b.scalK[name]; ok && k != interp.KInt {
			b.scalK[name] = kUnknown
		}
	}
}

// lowerDecls lowers pass 2 of frame setup: scalar and array declarations in
// order. A cell that already exists (a dummy's, an earlier declaration's, one
// an earlier initializer's forward reference created) is kept and its
// initializer not evaluated.
func (b *bc) lowerDecls() {
	for _, d := range b.c.u.Decls {
		if d.Parameter {
			continue
		}
		base := int32(d.Type.Base)
		for _, e := range d.Entities {
			s := b.c.syms[e.Name]
			dims := d.DimsOf(e)
			switch {
			case len(dims) == 0 && e.Init == nil:
				b.emit(bDeclS, int32(s.sslot), -1, base)
			case len(dims) == 0:
				b.flush()
				kept := b.emit(bJCell, -1, int32(s.sslot))
				b.emit(bDeclS, int32(s.sslot), b.expr(e.Init).reg, base)
				b.flush()
				b.patch(kept, b.here())
			default:
				dd := declDesc{
					aslot: int32(s.aslot), name: e.Name, kind: interp.KindOf(d.Type.Base),
					dims: make([][2]int32, len(dims)), dummy: b.isParam[e.Name], pos: d.Pos(),
				}
				for i, dim := range dims {
					dd.dims[i] = [2]int32{-1, -1}
					if dim.Lo != nil {
						dd.dims[i][0] = b.expr(dim.Lo).reg
					}
					if dim.Hi != nil {
						dd.dims[i][1] = b.expr(dim.Hi).reg
					}
				}
				b.bp.decls = append(b.bp.decls, dd)
				b.flush() // the allocation can fail
				b.emit(bDeclA, int32(len(b.bp.decls)-1))
			}
		}
	}
}

// declKind is the runtime kind of a cell created by bDeclS:
// ZeroOf(KindOf(base)) without an initializer, CoerceDecl(base, init) with
// one — which only pins the kind for integer and real declarations.
func declKind(base ftn.BaseType, init ftn.Expr) interp.Kind {
	k := interp.KindOf(base)
	switch k {
	case interp.KInt, interp.KReal:
		return k
	case interp.KBool:
		if init == nil {
			return k
		}
	}
	return kUnknown
}

// storageKind is the kind of values an array's storage yields: integer,
// real, and logical storages are kind-stable, anything else is not.
func storageKind(base ftn.BaseType) interp.Kind {
	switch k := interp.KindOf(base); k {
	case interp.KInt, interp.KReal, interp.KBool:
		return k
	}
	return kUnknown
}

// eachKill calls f for every scalar name stmts can store through its cell:
// assignment targets, DO variables, and top-level Ident call arguments
// (callees receive those by reference). wholesale marks the stores that can
// replace the cell's kind: a DO loop writes IntVal regardless of the
// cell, and a callee may run one over its dummy.
func eachKill(stmts []ftn.Stmt, f func(name string, wholesale bool)) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ftn.AssignStmt:
			if id, ok := s.LHS.(*ftn.Ident); ok {
				f(id.Name, false)
			}
		case *ftn.DoStmt:
			f(s.Var, true)
			eachKill(s.Body, f)
		case *ftn.IfStmt:
			eachKill(s.Then, f)
			eachKill(s.Else, f)
		case *ftn.CallStmt:
			for _, a := range s.Args {
				if id, ok := a.(*ftn.Ident); ok {
					f(id.Name, true)
				}
			}
		}
	}
}

// killsName reports whether stmts can store name's cell (see eachKill).
func killsName(stmts []ftn.Stmt, name string) bool {
	found := false
	eachKill(stmts, func(n string, _ bool) {
		if n == name {
			found = true
		}
	})
	return found
}

// --- constant folding ---

// fold folds an expression over literals, the named constants folded so far
// and the MPI constants nothing can shadow at this point (setup, or body),
// counting the Op charges the walker would make evaluating it (folded
// subtrees still charge — only the evaluation work disappears, never the
// accounting).
func (b *bc) fold(e ftn.Expr) (interp.Value, int64, bool) {
	switch e := e.(type) {
	case *ftn.IntLit:
		return interp.IntVal(e.Value), 0, true
	case *ftn.RealLit:
		return interp.RealVal(e.Value), 0, true
	case *ftn.BoolLit:
		return interp.BoolVal(e.Value), 0, true
	case *ftn.Ident:
		if v, ok := b.foldConst[e.Name]; ok {
			return v, 0, true
		}
		if b.mpiName[e.Name] || (b.setup && b.mpiSetup[e.Name]) {
			return interp.IntVal(b.c.syms[e.Name].mpi), 0, true
		}
	case *ftn.Unary:
		v, ops, ok := b.fold(e.X)
		if !ok {
			return interp.Value{}, 0, false
		}
		r, ok := foldUnary(e.Op, v)
		return r, ops + 1, ok
	case *ftn.Binary:
		xv, xops, ok := b.fold(e.X)
		if !ok {
			return interp.Value{}, 0, false
		}
		if e.Op == ".and." || e.Op == ".or." {
			if xv.Kind != interp.KBool {
				return interp.Value{}, 0, false
			}
			if e.Op == ".and." && !xv.B() {
				return interp.BoolVal(false), xops + 1, true
			}
			if e.Op == ".or." && xv.B() {
				return interp.BoolVal(true), xops + 1, true
			}
			yv, yops, ok := b.fold(e.Y)
			if !ok || yv.Kind != interp.KBool {
				return interp.Value{}, 0, false
			}
			return yv, xops + 1 + yops, true
		}
		yv, yops, ok := b.fold(e.Y)
		if !ok {
			return interp.Value{}, 0, false
		}
		r, ok := foldBinary(e.Op, xv, yv)
		return r, xops + 1 + yops, ok
	}
	return interp.Value{}, 0, false
}

func foldUnary(op string, v interp.Value) (interp.Value, bool) {
	switch op {
	case "-":
		if v.Kind == interp.KInt {
			return interp.IntVal(-v.I), true
		}
		return interp.RealVal(-v.AsReal()), true
	case "+":
		return v, true
	case ".not.":
		if v.Kind != interp.KBool {
			return interp.Value{}, false
		}
		return interp.BoolVal(!v.B()), true
	}
	return interp.Value{}, false
}

func foldBinary(op string, x, y interp.Value) (interp.Value, bool) {
	switch op {
	case "+", "-", "*", "/", "**":
		v, err := interp.NumericBinop(op, x, y)
		if err != nil {
			return interp.Value{}, false // fold no errors; runtime raises them
		}
		return v, true
	case "==", "/=", "<", "<=", ">", ">=":
		v, err := interp.Compare(op, x, y)
		if err != nil {
			return interp.Value{}, false
		}
		return v, true
	}
	return interp.Value{}, false
}

// --- emission helpers ---

// emit appends one instruction (unused operands stay -1) and returns its pc.
func (b *bc) emit(op bop, args ...int32) int32 {
	switch op {
	case bCall, bMPI, bJmp, bJF, bJT, bJFChk, bJArr, bJCell, bForPrep, bForIter, bForNext:
		// A call may store any cell (callees hold them by reference, the
		// MPI binding assigns its output arguments) and a transfer ends the
		// basic block: forwarded loads die here.
		b.forget()
	}
	ins := bins{op: op, a: -1, b: -1, c: -1}
	if len(args) > 0 {
		ins.a = args[0]
	}
	if len(args) > 1 {
		ins.b = args[1]
	}
	if len(args) > 2 {
		ins.c = args[2]
	}
	b.bp.code = append(b.bp.code, ins)
	return int32(len(b.bp.code) - 1)
}

// raise emits an instruction that can fail with err. Pending charges are
// flushed first, so the error surfaces at the walker's exact elapsed time.
func (b *bc) raise(err error, op bop, args ...int32) int32 {
	b.flush()
	pc := b.emit(op, args...)
	b.bp.errAt[pc] = err
	return pc
}

func (b *bc) forget() {
	if len(b.avail) > 0 {
		clear(b.avail)
	}
}

func (b *bc) newReg() int32 {
	r := b.nreg
	b.nreg++
	return r
}

// constReg interns a folded value as an initialized register. Interning is
// by bit pattern: -0.0 and 0.0 are different constants, two NaNs are one.
func (b *bc) constReg(v interp.Value) rv {
	c := toReg(v)
	r, ok := b.constRegs[c]
	if !ok {
		r = b.newReg()
		for int(r) >= len(b.bp.regInit) {
			b.bp.regInit = append(b.bp.regInit, reg{})
		}
		b.bp.regInit[r] = c
		b.constRegs[c] = r
	}
	return rv{reg: r, k: c.k, konst: true}
}

// flush emits the pending charge vector as one bCharge, deduplicating
// vectors program-wide. Must run before any instruction that can error,
// observe time, or transfer control.
func (b *bc) flush() {
	if b.pending == (chargeVec{}) {
		return
	}
	vec := b.pending
	b.pending = chargeVec{}
	idx, ok := b.vecMap[vec]
	if !ok {
		idx = int32(len(b.p.vecs))
		b.p.vecs = append(b.p.vecs, vec)
		b.vecMap[vec] = idx
	}
	b.emit(bCharge, idx)
}

// here is the next instruction's pc — a label. Pending charges never cross
// a label (all callers flush first), and neither do forwarded loads: a
// label is where paths merge.
func (b *bc) here() int32 {
	b.forget()
	return int32(len(b.bp.code))
}

// patch sets the a-operand (jump target) of instruction pc.
func (b *bc) patch(pc, target int32) { b.bp.code[pc].a = target }

// loadFast reports whether name's reads can address the cell directly:
// never during setup, when no cell is known to exist yet.
func (b *bc) loadFast(name string) bool {
	s := b.c.syms[name]
	return !b.setup && s != nil && b.cellSet[name] && s.cslot < 0
}

// storeFast reports whether name's writes can address the cell directly.
func (b *bc) storeFast(name string) bool { return !b.setup && b.cellSet[name] }

// nameIdx describes a by-name use of a scalar.
func (b *bc) nameIdx(name string, pos ftn.Pos) int32 {
	b.bp.names = append(b.bp.names, nameDesc{s: b.c.syms[name], pos: pos})
	return int32(len(b.bp.names) - 1)
}

// aslotOf is the array slot a name can hold an array in, -1 when it never
// does.
func (b *bc) aslotOf(name string) int32 {
	if s := b.c.syms[name]; s != nil {
		return int32(s.aslot)
	}
	return -1
}

// --- statement lowering ---

func (b *bc) stmt(s ftn.Stmt) {
	switch s := s.(type) {
	case *ftn.CommentStmt, *ftn.ContinueStmt:
	case *ftn.AssignStmt:
		b.store(s.LHS, b.expr(s.RHS))
	case *ftn.DoStmt:
		b.doStmt(s)
	case *ftn.IfStmt:
		b.ifStmt(s)
	case *ftn.CallStmt:
		b.call(s)
	case *ftn.PrintStmt:
		b.print(s)
	case *ftn.ReturnStmt:
		b.flush()
		b.emit(bRet)
	case *ftn.StopStmt:
		b.flush()
		b.emit(bStop)
	case *ftn.ExitStmt:
		b.flush()
		if n := len(b.loops); n > 0 {
			lf := b.loops[n-1]
			lf.exitPatches = append(lf.exitPatches, b.emit(bJmp, -1))
		} else {
			b.emit(bExitS)
		}
	case *ftn.CycleStmt:
		b.flush()
		if n := len(b.loops); n > 0 {
			lf := b.loops[n-1]
			lf.contPatches = append(lf.contPatches, b.emit(bJmp, -1))
		} else {
			b.emit(bCycleS)
		}
	default:
		b.raise(rte(s.Pos(), "unsupported statement %T", s), bErr)
	}
}

// store lowers the assignment of an already-lowered value to a designator
// (the walker's m.store): a scalar store finds its cell, charges Assign and
// converts to the cell's kind; an array-element store resolves the array
// first, then the subscripts, then charges Store.
func (b *bc) store(lhs ftn.Expr, v rv) {
	switch lhs := lhs.(type) {
	case *ftn.Ident:
		if b.isParam[lhs.Name] {
			// A dummy's cell may be another dummy's too: the store changes
			// what every one of them reads next.
			b.forget()
		}
		if !b.storeFast(lhs.Name) {
			b.nonInt++
			b.flush() // finding the cell can fail
			b.emit(bStoreN, b.nameIdx(lhs.Name, lhs.Pos()), v.reg)
			b.pending[kAssign]++
			return
		}
		if v.k != interp.KInt || b.scalK[lhs.Name] != interp.KInt {
			b.nonInt++
		}
		b.pending[kAssign]++
		b.emit(bStoreS, int32(b.c.syms[lhs.Name].sslot), v.reg)
		// The store converts to the cell's kind, so the cell's new value is
		// not v: the next read reloads.
		delete(b.avail, lhs.Name)
	case *ftn.Ref:
		g := b.arrInfo[lhs.Name]
		if g == nil {
			// Whether the name holds an array is only known at run time (a
			// dummy the caller may have bound either way).
			notArray := rte(lhs.Pos(), "assignment to %s, which is not an array", lhs.Name)
			aslot := b.aslotOf(lhs.Name)
			if aslot < 0 {
				b.raise(notArray, bErr)
				return
			}
			b.flush()
			bound := b.emit(bJArr, -1, aslot)
			b.raise(notArray, bErr)
			b.patch(bound, b.here())
			g = &arrGeo{aslot: aslot, kind: kUnknown}
		}
		subs := b.lowerSubs(lhs.Args)
		if v.k != interp.KInt || g.kind != interp.KInt || !allInt(subs) {
			b.nonInt++
		}
		b.pending[kStore]++
		if gi, ok := b.geoAccess(g, lhs.Args, subs); ok {
			b.emit(bStoreU1+bop(len(subs)-1), gi, v.reg)
			return
		}
		b.flush()
		b.emit(bStoreA, b.accIdx(g, subs, lhs.Pos()), v.reg)
	default:
		b.raise(rte(lhs.Pos(), "bad assignment target %T", lhs), bErr)
	}
}

func (b *bc) accIdx(g *arrGeo, subs []rv, pos ftn.Pos) int32 {
	b.bp.accs = append(b.bp.accs, accDesc{aslot: g.aslot, subs: regsOf(subs), pos: pos})
	return int32(len(b.bp.accs) - 1)
}

func regsOf(rs []rv) []int32 {
	out := make([]int32, len(rs))
	for i, r := range rs {
		out[i] = r.reg
	}
	return out
}

// geoAccess builds an unchecked access of rank 1 to 3 when every subscript
// is an integer affine in statically-ranged DO variables and provably
// inside the folded geometry of a kind-stable array.
func (b *bc) geoAccess(g *arrGeo, args []ftn.Expr, subs []rv) (int32, bool) {
	if g.lo == nil || len(args) != len(g.lo) || len(args) > 3 || g.kind == kUnknown {
		return 0, false
	}
	env := &dep.Env{LoopVars: map[string]bool{}, Consts: b.intConsts}
	for v := range b.facts {
		env.LoopVars[v] = true
	}
	d := geoDesc{aslot: g.aslot, kind: g.kind}
	for i, e := range args {
		a, ok := dep.FromExpr(e, env)
		if !ok || len(a.Syms) != 0 || subs[i].k != interp.KInt {
			return 0, false
		}
		mn, mx, ok := b.affineRange(a)
		if !ok || mn < g.lo[i] || mx > g.hi[i] {
			return 0, false
		}
		d.sub[i] = subs[i].reg
		d.stride[i] = g.stride[i]
		d.base -= g.lo[i] * g.stride[i]
	}
	b.bp.geos = append(b.bp.geos, d)
	return int32(len(b.bp.geos) - 1), true
}

// affineRange bounds an affine form over the current DO-variable facts,
// rejecting anything near overflow territory.
func (b *bc) affineRange(a dep.Affine) (int64, int64, bool) {
	const lim = int64(1) << 40
	mn, mx := a.Const, a.Const
	if mn < -lim || mn > lim {
		return 0, 0, false
	}
	for v, c := range a.Coef {
		if c == 0 {
			continue
		}
		f, ok := b.facts[v]
		if !ok {
			return 0, 0, false
		}
		if c < -lim || c > lim || f.lo < -lim || f.lo > lim || f.hi < -lim || f.hi > lim {
			return 0, 0, false
		}
		t1, t2 := c*f.lo, c*f.hi
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		mn += t1
		mx += t2
		if mn < -lim || mx > lim {
			return 0, 0, false
		}
	}
	return mn, mx, true
}

func (b *bc) lowerSubs(args []ftn.Expr) []rv {
	subs := make([]rv, len(args))
	for i, a := range args {
		subs[i] = b.expr(a)
	}
	return subs
}

// allInt reports whether every lowered subscript is statically integer.
func allInt(subs []rv) bool {
	for _, s := range subs {
		if s.k != interp.KInt {
			return false
		}
	}
	return true
}

func (b *bc) ifStmt(s *ftn.IfStmt) {
	cond := b.expr(s.Cond)
	b.pending[kOp]++
	var jf int32
	if cond.k == interp.KBool {
		b.flush()
		jf = b.emit(bJF, -1, cond.reg)
	} else {
		jf = b.raise(rte(s.Pos(), "IF condition is not logical"), bJFChk, -1, cond.reg)
	}
	for _, st := range s.Then {
		b.stmt(st)
	}
	if len(s.Else) > 0 {
		b.flush()
		jend := b.emit(bJmp, -1)
		b.patch(jf, b.here())
		for _, st := range s.Else {
			b.stmt(st)
		}
		b.flush()
		b.patch(jend, b.here())
		return
	}
	b.flush()
	b.patch(jf, b.here())
}

// bound lowers a DO bound or step; when it folds (r.konst), v is the
// integer the loop will see.
func (b *bc) bound(e ftn.Expr) (r rv, v int64) {
	r = b.expr(e)
	if r.konst {
		v = b.bp.regInit[r.reg].asInt()
	}
	return r, v
}

func (b *bc) doStmt(s *ftn.DoStmt) {
	// Bounds and step evaluate once, before the loop.
	lo, loI := b.bound(s.Lo)
	hi, hiI := b.bound(s.Hi)
	fd := forDesc{
		loReg: lo.reg, hiReg: hi.reg, stepReg: -1,
		sslot: int32(b.c.syms[s.Var].sslot),
		vReg:  b.newReg(), tripsReg: b.newReg(), stepValReg: b.newReg(),
	}
	static := lo.konst && hi.konst
	stepI := int64(1)
	if s.Step != nil {
		var step rv
		step, stepI = b.bound(s.Step)
		fd.stepReg = step.reg
		static = static && step.konst
	}
	fdIdx := int32(len(b.bp.fors))
	b.bp.fors = append(b.bp.fors, fd)
	b.raise(rte(s.Pos(), "DO step is zero"), bForPrep, fdIdx)
	if !b.storeFast(s.Var) {
		// The loop stores through the cell's slot: find or create the cell
		// now, where the walker looks it up (and may refuse to).
		b.emit(bCellN, b.nameIdx(s.Var, s.Pos()))
	}
	head := b.here()
	b.emit(bForIter, fdIdx)

	// A body that never stores the variable reads it from the loop's value
	// register, and a fully static trip space additionally gives the
	// variable a value-range fact for bounds-check elimination. (An inner
	// DO over the same variable is a store, so neither can already be set.)
	// Not a dummy's cell: another dummy may alias it.
	direct := b.loadFast(s.Var) && !b.isParam[s.Var] && !killsName(s.Body, s.Var)
	if direct {
		b.loopRegs[s.Var] = fd.vReg
		if static && stepI != 0 {
			if trips := (hiI - loI + stepI) / stepI; trips > 0 {
				fl, fh := loI, loI+(trips-1)*stepI
				if fl > fh {
					fl, fh = fh, fl
				}
				b.facts[s.Var] = factRange{lo: fl, hi: fh}
			}
		}
	}

	b.loops = append(b.loops, &loopFrame{})
	b.pending[kLoopIter]++
	nonInt := b.nonInt
	for _, st := range s.Body {
		b.stmt(st)
	}
	b.flush()
	contPC := b.here()
	b.emit(bForNext, fdIdx)
	endPC := b.here()

	lfd := &b.bp.fors[fdIdx]
	lfd.headPC = head
	lfd.endPC = endPC
	lfd.inner = int(fdIdx) == len(b.bp.fors)-1
	// An integer-only innermost loop that never stores its variable is a
	// strip candidate; planStrips settles it once the unit is lowered.
	lfd.nvec = -1
	if lfd.inner && direct && b.nonInt == nonInt {
		lfd.nvec = 0
	}
	lf := b.loops[len(b.loops)-1]
	b.loops = b.loops[:len(b.loops)-1]
	for _, pc := range lf.exitPatches {
		b.patch(pc, endPC)
	}
	for _, pc := range lf.contPatches {
		b.patch(pc, contPC)
	}
	for _, pc := range lf.callPatches {
		b.bp.code[pc].b = contPC
		b.bp.code[pc].c = endPC
	}
	if direct {
		delete(b.loopRegs, s.Var)
		delete(b.facts, s.Var)
	}
}

// lazily lowers what emit produces into a code range of its own: nothing is
// forwarded into or out of it and its charges are flushed inside it, so the
// owning instruction may run it at any point of its execution, or not at
// all. The caller has already jumped over the ranges.
func (b *bc) lazily(emit func() int32) lazy {
	l := lazy{pc0: b.here()}
	l.reg = emit()
	b.flush()
	l.pc1 = b.here()
	return l
}

// call lowers a CALL statement: an MPI routine of the shared binding, or a
// user subroutine resolved here, where every unit is known.
func (b *bc) call(s *ftn.CallStmt) {
	d := callDesc{mpi: interp.LookupMPI(s.Name), stmt: s}
	op := bMPI
	if d.mpi == nil {
		op = bCall
		d.sub = b.p.subroutine(s.Name)
		switch {
		case d.sub == nil:
			b.raise(rte(s.Pos(), "unknown subroutine %s", s.Name), bErr)
			return
		case len(s.Args) != len(d.sub.params):
			b.raise(rte(s.Pos(), "call to %s with %d args, wants %d", s.Name, len(s.Args), len(d.sub.params)), bErr)
			return
		}
		b.pending[kCall]++
	}
	// The call observes time (MPI) or charges before its arguments (user),
	// and runs its arguments' ranges itself: jump over them.
	b.flush()
	over := b.emit(bJmp, -1)
	if d.mpi == nil || len(s.Args) == len(d.mpi.Roles) {
		// (An MPI call off its routine's signature touches no argument.)
		d.args = make([]argDesc, len(s.Args))
	}
	for i := range d.args {
		arg, a := s.Args[i], &d.args[i]
		a.aslot, a.name, a.pos = -1, -1, arg.Pos()
		byRef, byVal, byStore := true, true, false
		if d.mpi != nil {
			role := d.mpi.Roles[i]
			byRef, byVal, byStore = role&interp.ArgBuffer != 0, role&interp.ArgValue != 0, role&interp.ArgStore != 0
		}
		if byRef {
			switch arg := arg.(type) {
			case *ftn.Ident:
				a.aslot = b.aslotOf(arg.Name)
				if d.mpi == nil {
					a.name = b.nameIdx(arg.Name, arg.Pos())
				}
				byVal = byVal && d.mpi != nil
			case *ftn.Ref:
				if a.aslot = b.aslotOf(arg.Name); a.aslot >= 0 {
					a.subs = b.lazily(func() int32 {
						a.subRegs = regsOf(b.lowerSubs(arg.Args))
						return -1
					})
				}
				// An element of a proven array is never passed by value.
				byVal = byVal && b.arrInfo[arg.Name] == nil
			}
		}
		if byVal {
			a.val = b.lazily(func() int32 { return b.expr(arg).reg })
		}
		if byStore {
			a.sto = b.lazily(func() int32 {
				in := b.newReg()
				b.store(arg, rv{reg: in, k: interp.KInt}) // the binding assigns integers only
				return in
			})
		}
	}
	if next := b.here(); next == over+1 {
		b.bp.code = b.bp.code[:over] // no argument needed code: nothing to jump over
	} else {
		b.patch(over, next)
	}
	b.bp.calls = append(b.bp.calls, d)
	pc := b.emit(op, int32(len(b.bp.calls)-1))
	if n := len(b.loops); n > 0 && op == bCall {
		b.loops[n-1].callPatches = append(b.loops[n-1].callPatches, pc)
	}
}

// print lowers a PRINT statement: its items evaluate in order into registers
// (a literal standing directly as an item stays a literal), then one
// instruction formats the line.
func (b *bc) print(s *ftn.PrintStmt) {
	items := make([]printItem, len(s.Args))
	for i, a := range s.Args {
		if lit, ok := a.(*ftn.StrLit); ok {
			items[i] = printItem{reg: -1, lit: interp.StrVal(lit.Value)}
			continue
		}
		items[i].reg = b.expr(a).reg
	}
	b.bp.prints = append(b.bp.prints, items)
	b.emit(bPrint, int32(len(b.bp.prints)-1))
}

// --- expression lowering ---

func (b *bc) expr(e ftn.Expr) rv {
	if v, ops, ok := b.fold(e); ok {
		b.pending[kOp] += ops
		return b.constReg(v)
	}
	switch e := e.(type) {
	case *ftn.Ident:
		return b.identLoad(e)
	case *ftn.Unary:
		return b.unary(e)
	case *ftn.Binary:
		return b.binary(e)
	case *ftn.Ref:
		return b.ref(e)
	}
	// Numeric and logical literals always fold; a character literal never
	// reaches the lowering.
	b.raise(rte(e.Pos(), "unsupported expression %T", e), bErr)
	return rv{reg: b.newReg(), k: kUnknown}
}

func (b *bc) identLoad(e *ftn.Ident) rv {
	if !b.loadFast(e.Name) {
		if b.setup {
			b.early[e.Name] = true
		}
		b.flush() // resolving the name can fail
		dst := b.newReg()
		b.emit(bLoadN, dst, b.nameIdx(e.Name, e.Pos()))
		return rv{reg: dst, k: kUnknown}
	}
	if r, ok := b.loopRegs[e.Name]; ok {
		return rv{reg: r, k: interp.KInt}
	}
	r, ok := b.avail[e.Name]
	if !ok {
		r = b.newReg()
		b.emit(bLoadS, r, int32(b.c.syms[e.Name].sslot))
		b.avail[e.Name] = r
	}
	return rv{reg: r, k: b.scalK[e.Name]}
}

func (b *bc) unary(e *ftn.Unary) rv {
	x := b.expr(e.X)
	b.pending[kOp]++
	dst := b.newReg()
	switch e.Op {
	case "-":
		if x.k == interp.KInt {
			b.emit(bNegI, dst, x.reg)
			return rv{reg: dst, k: interp.KInt}
		}
		b.emit(bNeg, dst, x.reg)
		k := kUnknown
		if x.k != kUnknown {
			k = interp.KReal // any known non-int negates to real
		}
		return rv{reg: dst, k: k}
	case "+":
		return x
	case ".not.":
		if x.k == interp.KBool {
			b.emit(bNot, dst, x.reg)
		} else {
			b.raise(rte(e.Pos(), ".not. of non-logical"), bNotChk, dst, x.reg)
		}
		return rv{reg: dst, k: interp.KBool}
	}
	b.raise(rte(e.Pos(), "bad unary operator %q", e.Op), bErr)
	return rv{reg: dst, k: kUnknown}
}

func (b *bc) binary(e *ftn.Binary) rv {
	op := e.Op
	switch op {
	case ".and.", ".or.":
		return b.logical(e)
	case "+", "-", "*", "/", "**":
		return b.arith(e)
	case "==", "/=", "<", "<=", ">", ">=":
		return b.compare(e)
	}
	// Unknown operator: the walker evaluates both sides, charges, then
	// fails in Compare.
	b.expr(e.X)
	b.expr(e.Y)
	b.pending[kOp]++
	b.raise(rte(e.Pos(), "%v", fmt.Errorf("bad comparison %q", op)), bErr)
	return rv{reg: b.newReg(), k: kUnknown}
}

func (b *bc) logical(e *ftn.Binary) rv {
	isAnd := e.Op == ".and."
	x := b.expr(e.X)
	if x.k != interp.KBool {
		// Kind check precedes the Op charge in the walker.
		b.raise(rte(e.Pos(), "%s of non-logical", e.Op), bBoolChk, x.reg)
	}
	b.pending[kOp]++
	b.flush()
	dst := b.newReg()
	var jShort int32
	if isAnd {
		jShort = b.emit(bJF, -1, x.reg)
	} else {
		jShort = b.emit(bJT, -1, x.reg)
	}
	y := b.expr(e.Y)
	if y.k != interp.KBool {
		b.raise(rte(e.Pos(), "%s of non-logical", e.Op), bBoolChk, y.reg)
	}
	b.emit(bMove, dst, y.reg)
	b.flush()
	jEnd := b.emit(bJmp, -1)
	b.patch(jShort, b.here())
	b.emit(bMove, dst, b.constReg(interp.BoolVal(!isAnd)).reg)
	b.patch(jEnd, b.here())
	return rv{reg: dst, k: interp.KBool}
}

// zeroDivPossible reports whether x/y or mod(x, y) can raise: only an
// integer division does, and only when the divisor is not a folded non-zero
// constant. An op that cannot raise does not split the charge vector.
func (b *bc) zeroDivPossible(x, y rv) bool {
	mayBeInt := func(k interp.Kind) bool { return k == interp.KInt || k == kUnknown }
	if !mayBeInt(x.k) || !mayBeInt(y.k) {
		return false
	}
	return !(y.konst && b.bp.regInit[y.reg].bits != 0)
}

// binop emits a two-operand instruction, flushing first and registering err
// when it can raise.
func (b *bc) binop(op bop, x, y rv, err error) int32 {
	dst := b.newReg()
	if err != nil {
		b.raise(err, op, dst, x.reg, y.reg)
	} else {
		b.emit(op, dst, x.reg, y.reg)
	}
	return dst
}

// resultKind is the static kind of an arithmetic result: integer for two
// integers, real once both kinds are known and one is not, else unknown.
func resultKind(x, y rv) interp.Kind {
	switch {
	case x.k == interp.KInt && y.k == interp.KInt:
		return interp.KInt
	case x.k == kUnknown || y.k == kUnknown:
		return kUnknown
	}
	return interp.KReal
}

func (b *bc) arith(e *ftn.Binary) rv {
	x := b.expr(e.X)
	y := b.expr(e.Y)
	b.pending[kOp]++
	k := resultKind(x, y)
	var op, opI bop
	switch e.Op {
	case "+":
		op, opI = bAdd, bAddI
	case "-":
		op, opI = bSub, bSubI
	case "*":
		op, opI = bMul, bMulI
	case "/":
		op, opI = bDiv, bDivI
	case "**":
		op, opI = bPow, bPowI
	}
	if k == interp.KInt {
		op = opI
	}
	var err error
	if e.Op == "/" && b.zeroDivPossible(x, y) {
		err = rte(e.Pos(), "integer division by zero")
	}
	return rv{reg: b.binop(op, x, y, err), k: k}
}

func (b *bc) compare(e *ftn.Binary) rv {
	x := b.expr(e.X)
	y := b.expr(e.Y)
	b.pending[kOp]++
	var op, opI bop
	switch e.Op {
	case "==":
		op, opI = bEq, bEqI
	case "/=":
		op, opI = bNe, bNeI
	case "<":
		op, opI = bLt, bLtI
	case "<=":
		op, opI = bLe, bLeI
	case ">":
		op, opI = bGt, bGtI
	case ">=":
		op, opI = bGe, bGeI
	}
	if x.k == interp.KInt && y.k == interp.KInt {
		op = opI
	}
	return rv{reg: b.binop(op, x, y, nil), k: interp.KBool}
}

// ref lowers name(args): an array element load when the name provably holds
// an array, the intrinsic path when it never can, and for the remainder (a
// dummy without an array declaration, any array name during setup) both,
// behind a run-time test of the slot — the walker's evalRef. Either way the
// arguments are evaluated first, in order.
func (b *bc) ref(e *ftn.Ref) rv {
	args := b.lowerSubs(e.Args)
	aslot := b.aslotOf(e.Name)
	if aslot < 0 {
		return b.intrinsic(e, args)
	}
	if g := b.arrInfo[e.Name]; g != nil && !b.setup {
		return b.load(e, g, args)
	}
	b.flush()
	dst := b.newReg()
	bound := b.emit(bJArr, -1, aslot)
	b.emit(bMove, dst, b.intrinsic(e, args).reg)
	b.flush()
	done := b.emit(bJmp, -1)
	b.patch(bound, b.here())
	b.emit(bMove, dst, b.load(e, &arrGeo{aslot: aslot, kind: kUnknown}, args).reg)
	b.flush()
	b.patch(done, b.here())
	return rv{reg: dst, k: kUnknown}
}

// load lowers the element load of array g at the lowered subscripts.
func (b *bc) load(e *ftn.Ref, g *arrGeo, subs []rv) rv {
	if g.kind != interp.KInt || !allInt(subs) {
		b.nonInt++
	}
	b.pending[kLoad]++
	dst := b.newReg()
	if gi, ok := b.geoAccess(g, e.Args, subs); ok {
		b.emit(bLoadU1+bop(len(subs)-1), dst, gi)
		return rv{reg: dst, k: g.kind}
	}
	b.flush()
	b.emit(bLoadA, dst, b.accIdx(g, subs, e.Pos()))
	return rv{reg: dst, k: g.kind}
}

// intrinsic lowers name(args) as an intrinsic call over the lowered
// arguments.
func (b *bc) intrinsic(e *ftn.Ref, args []rv) rv {
	name := e.Name
	pos := e.Pos()
	b.pending[kOp]++
	switch {
	case name == "mpi_wtime":
		b.flush()
		b.p.timed = true
		dst := b.newReg()
		b.emit(bWtime, dst)
		return rv{reg: dst, k: interp.KReal}
	case !interp.IsIntrinsic(name):
		b.raise(rte(pos, "unknown array or intrinsic %q", name), bErr)
		return rv{reg: b.newReg(), k: kUnknown}
	}
	if len(args) == 2 {
		x, y := args[0], args[1]
		k := resultKind(x, y)
		switch {
		case name == "mod":
			op := bMod
			if k == interp.KInt {
				op = bModI
			}
			var err error
			if b.zeroDivPossible(x, y) {
				err = rte(pos, "mod by zero")
			}
			return rv{reg: b.binop(op, x, y, err), k: k}
		case name == "min" && k == interp.KInt:
			return rv{reg: b.binop(bMinI, x, y, nil), k: k}
		case name == "max" && k == interp.KInt:
			return rv{reg: b.binop(bMaxI, x, y, nil), k: k}
		}
	}
	b.bp.intrs = append(b.bp.intrs, intrDesc{name: name, args: regsOf(args), pos: pos})
	b.flush()
	dst := b.newReg()
	b.emit(bIntr, dst, int32(len(b.bp.intrs)-1))
	return rv{reg: dst, k: kUnknown}
}
