// Lowering from the compiled unit's AST + symbol table to bytecode. The
// lowering never fails: anything it cannot model natively falls back to the
// closure tier (bEval/bStmt instructions invoking the closure program's
// pre-resolved closures), so every program lowers and the result is
// bit-identical to the walk oracle on every path.
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
//     charge vector;
//   - string exclusion: registers hold no character values, so any
//     expression a character value can reach is evaluated by the closure
//     tier as a whole (bEval) or takes its statement with it (bStmt).
package exec

import (
	"fmt"

	"repro/internal/dep"
	"repro/internal/ftn"
	"repro/internal/interp"
)

// kUnknown marks a statically-unknown runtime kind.
const kUnknown interp.Kind = 0xff

// Bytecode returns the lazily-lowered bytecode form of the program's main
// unit. Lowering never fails and runs at most once per Program.
func (p *Program) Bytecode() *bprog {
	p.bcOnce.Do(func() {
		p.bc = lowerMain(p)
	})
	return p.bc
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
	stmtPatches []int32 // bStmt pcs needing (contPC, endPC)
}

// bc is the lowering state for one unit.
type bc struct {
	c  *comp
	bp *bprog

	nreg      int32
	constRegs map[reg]int32
	vecMap    map[[5]int64]int32
	pending   [5]int64

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
	strNames  map[string]bool         // names whose value may be a character string
	isParam   map[string]bool
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

// lowerMain lowers the main unit's body. Frame setup stays on the closure
// tier (it runs once per activation); the body — where all repeated work
// lives — becomes bytecode.
func lowerMain(p *Program) *bprog {
	c := p.main.cm
	b := &bc{
		c:         c,
		bp:        &bprog{errAt: map[int32]error{}},
		constRegs: map[reg]int32{},
		vecMap:    map[[5]int64]int32{},
		avail:     map[string]int32{},
		loopRegs:  map[string]int32{},
		strNames:  map[string]bool{},
		foldConst: map[string]interp.Value{},
		mpiName:   map[string]bool{},
		mpiSetup:  map[string]bool{},
		kills:     map[string]bool{},
		poisoned:  map[string]bool{},
		declScal:  map[string]interp.Kind{},
		isParam:   map[string]bool{},
		cellSet:   map[string]bool{},
		scalK:     map[string]interp.Kind{},
		arrInfo:   map[string]*arrGeo{},
		intConsts: map[string]int64{},
		facts:     map[string]factRange{},
	}
	b.analyze()
	for _, st := range c.u.Body {
		b.stmt(st)
	}
	b.flush()
	b.bp.nreg = int(b.nreg)
	b.planStrips()
	return b.bp
}

// --- static analysis ---

func (b *bc) analyze() {
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

	// Declared-name facts: first non-param scalar decl fixes the cell kind
	// (later decls keep the existing cell); last non-param array decl fixes
	// the geometry (later decls replace the allocation).
	hasDeclEntity := map[string]bool{}
	for _, d := range u.Decls {
		for _, e := range d.Entities {
			hasDeclEntity[e.Name] = true
			if d.Parameter {
				continue
			}
			if len(d.DimsOf(e)) > 0 {
				continue // array geometry resolved below, decl-order last-wins
			}
			if _, seen := b.declScal[e.Name]; seen {
				continue
			}
			k := declKind(d.Type.Base, e.Init)
			b.declScal[e.Name] = k
			if k == kUnknown {
				// A character cell, or a logical one whose initializer is
				// stored unconverted: either can hold a string.
				b.strNames[e.Name] = true
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

	// Parameter constants fold in declaration order; a forward reference
	// (which the walker resolves to an implicit zero mid-setup) marks the
	// constant unfoldable rather than guessing.
	unfoldable := map[string]bool{}
	for _, d := range u.Decls {
		if !d.Parameter {
			continue
		}
		for _, e := range d.Entities {
			if e.Init == nil {
				continue
			}
			v, ok := b.foldSetup(e.Init)
			if !ok || unfoldable[e.Name] {
				delete(b.foldConst, e.Name)
				unfoldable[e.Name] = true
				if k := interp.KindOf(d.Type.Base); k != interp.KInt && k != interp.KReal {
					b.strNames[e.Name] = true // run-time value of any kind
				}
				continue
			}
			b.foldConst[e.Name] = interp.CoerceDecl(d.Type.Base, v)
		}
	}
	for n, v := range b.foldConst {
		switch v.Kind {
		case interp.KInt:
			b.intConsts[n] = v.I
		case interp.KStr:
			b.strNames[n] = true
		}
	}

	// Array geometry: non-dummy names with at least one non-param array
	// decl are non-nil after setup; statically-foldable dims give BCE
	// geometry (column-major strides, exactly NewArray's layout).
	for _, d := range u.Decls {
		if d.Parameter {
			continue
		}
		for _, e := range d.Entities {
			dims := d.DimsOf(e)
			if len(dims) == 0 || b.isParam[e.Name] {
				continue
			}
			s := b.c.syms[e.Name]
			if s == nil || s.aslot < 0 {
				continue
			}
			g := &arrGeo{aslot: int32(s.aslot), kind: storageKind(d.Type.Base)}
			static := true
			stride := int64(1)
			for _, dim := range dims {
				lo := int64(1)
				if dim.Lo != nil {
					v, ok := b.foldSetup(dim.Lo)
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
				hv, ok := b.foldSetup(dim.Hi)
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
			b.arrInfo[e.Name] = g // last decl wins
		}
	}

	// Cell existence and static kinds. A cell is sure when a non-param
	// scalar decl creates it during setup, or when the name is eligible
	// for pre-creation (the walker would lazily create the same cell).
	for _, s := range b.c.order {
		name := s.name
		if k, ok := b.declScal[name]; ok {
			b.cellSet[name] = true
			if b.isParam[name] {
				k = kUnknown // dummy: the caller's cell, any kind
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

// declKind is the runtime kind of a cell created by scalarDeclStep:
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

// hasStr reports whether a character value can appear anywhere in e: a
// string literal or a name that may hold one. Such an expression is never
// lowered onto registers.
func (b *bc) hasStr(e ftn.Expr) bool {
	switch e := e.(type) {
	case *ftn.StrLit:
		return true
	case *ftn.Ident:
		return b.strNames[e.Name]
	case *ftn.Unary:
		return b.hasStr(e.X)
	case *ftn.Binary:
		return b.hasStr(e.X) || b.hasStr(e.Y)
	case *ftn.Ref:
		return b.anyStr(e.Args)
	}
	return false
}

func (b *bc) anyStr(es []ftn.Expr) bool {
	for _, e := range es {
		if b.hasStr(e) {
			return true
		}
	}
	return false
}

// strValued reports whether e's own value may be a character string, given
// hasStr(e): only literals, names, unary plus and min/max pass one through;
// every other operator yields a number, a logical, or an error.
func (b *bc) strValued(e ftn.Expr) bool {
	switch e := e.(type) {
	case *ftn.StrLit, *ftn.Ident:
		return true
	case *ftn.Unary:
		return e.Op == "+" && b.strValued(e.X)
	case *ftn.Ref:
		return e.Name == "min" || e.Name == "max"
	}
	return false
}

// --- constant folding ---

// foldSetup folds an expression in frame-setup context (constant
// initializers, array bounds): literals, already-folded constants, and MPI
// names with no declaration. No charge counting — setup stays on closures.
func (b *bc) foldSetup(e ftn.Expr) (interp.Value, bool) {
	switch e := e.(type) {
	case *ftn.IntLit:
		return interp.IntVal(e.Value), true
	case *ftn.RealLit:
		return interp.RealVal(e.Value), true
	case *ftn.StrLit:
		return interp.StrVal(e.Value), true
	case *ftn.BoolLit:
		return interp.BoolVal(e.Value), true
	case *ftn.Ident:
		if v, ok := b.foldConst[e.Name]; ok {
			return v, true
		}
		if b.mpiSetup[e.Name] {
			return interp.IntVal(b.c.syms[e.Name].mpi), true
		}
	case *ftn.Unary:
		v, ok := b.foldSetup(e.X)
		if !ok {
			return interp.Value{}, false
		}
		return foldUnary(e.Op, v)
	case *ftn.Binary:
		xv, ok := b.foldSetup(e.X)
		if !ok {
			return interp.Value{}, false
		}
		if e.Op == ".and." || e.Op == ".or." {
			if xv.Kind != interp.KBool {
				return interp.Value{}, false
			}
			if (e.Op == ".and." && !xv.B()) || (e.Op == ".or." && xv.B()) {
				return interp.BoolVal(xv.B()), true
			}
			yv, ok := b.foldSetup(e.Y)
			if !ok || yv.Kind != interp.KBool {
				return interp.Value{}, false
			}
			return yv, true
		}
		yv, ok := b.foldSetup(e.Y)
		if !ok {
			return interp.Value{}, false
		}
		return foldBinary(e.Op, xv, yv)
	}
	return interp.Value{}, false
}

// fold folds a body expression, counting the Op charges the walker would
// make evaluating it (folded subtrees still charge — only the evaluation
// work disappears, never the accounting).
func (b *bc) fold(e ftn.Expr) (interp.Value, int64, bool) {
	switch e := e.(type) {
	case *ftn.IntLit:
		return interp.IntVal(e.Value), 0, true
	case *ftn.RealLit:
		return interp.RealVal(e.Value), 0, true
	case *ftn.StrLit:
		return interp.StrVal(e.Value), 0, true
	case *ftn.BoolLit:
		return interp.BoolVal(e.Value), 0, true
	case *ftn.Ident:
		if v, ok := b.foldConst[e.Name]; ok {
			return v, 0, true
		}
		if b.mpiName[e.Name] {
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
	case bEval, bStmt, bJmp, bJF, bJT, bJFChk, bForPrep, bForIter, bForNext:
		// A bridge may store any cell (callees hold them by reference) and
		// a transfer ends the basic block: forwarded loads die here.
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
	if b.pending == ([5]int64{}) {
		return
	}
	vec := b.pending
	b.pending = [5]int64{}
	idx, ok := b.vecMap[vec]
	if !ok {
		idx = int32(len(b.bp.vecs))
		b.bp.vecs = append(b.bp.vecs, vec)
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

func (b *bc) evalIdx(fn exprFn) int32 {
	b.bp.evals = append(b.bp.evals, fn)
	return int32(len(b.bp.evals) - 1)
}

func (b *bc) stmtIdx(fn stmtFn) int32 {
	b.bp.stmts = append(b.bp.stmts, fn)
	return int32(len(b.bp.stmts) - 1)
}

// patch sets the a-operand (jump target) of instruction pc.
func (b *bc) patch(pc, target int32) { b.bp.code[pc].a = target }

// loadFast reports whether name's reads can address the cell directly.
func (b *bc) loadFast(name string) bool {
	s := b.c.syms[name]
	return s != nil && b.cellSet[name] && s.cslot < 0
}

// storeFast reports whether name's writes can address the cell directly.
func (b *bc) storeFast(name string) bool { return b.cellSet[name] }

// stmtFallback lowers a statement through the closure tier. Inside a
// lowered loop, EXIT/CYCLE sentinels escaping the closure re-enter the
// bytecode loop via patched jump targets — exactly the walker's innermost
// runStmts handling.
func (b *bc) stmtFallback(s ftn.Stmt) {
	fn := b.c.stmt(s)
	if fn == nil {
		return
	}
	b.flush()
	pc := b.emit(bStmt, b.stmtIdx(fn), -1, -1)
	if n := len(b.loops); n > 0 {
		lf := b.loops[n-1]
		lf.stmtPatches = append(lf.stmtPatches, pc)
	}
}

// evalFallback lowers an expression through the closure tier. The caller
// guarantees its value is never a character string.
func (b *bc) evalFallback(fn exprFn) rv {
	b.flush()
	dst := b.newReg()
	b.emit(bEval, dst, b.evalIdx(fn))
	return rv{reg: dst, k: kUnknown}
}

// --- statement lowering ---

func (b *bc) stmt(s ftn.Stmt) {
	switch s := s.(type) {
	case *ftn.CommentStmt, *ftn.ContinueStmt:
	case *ftn.AssignStmt:
		b.assign(s)
	case *ftn.DoStmt:
		b.doStmt(s)
	case *ftn.IfStmt:
		b.ifStmt(s)
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
		// MPI calls, user calls, prints, and anything unmodeled: the
		// closure tier's pre-resolved bindings.
		b.stmtFallback(s)
	}
}

func (b *bc) assign(s *ftn.AssignStmt) {
	if b.hasStr(s.RHS) {
		b.stmtFallback(s)
		return
	}
	switch lhs := s.LHS.(type) {
	case *ftn.Ident:
		if !b.storeFast(lhs.Name) {
			b.stmtFallback(s)
			return
		}
		v := b.expr(s.RHS)
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
		if g == nil || b.anyStr(lhs.Args) {
			b.stmtFallback(s)
			return
		}
		v := b.expr(s.RHS)
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
		b.stmtFallback(s)
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
	var cond rv
	switch {
	case !b.hasStr(s.Cond):
		cond = b.expr(s.Cond)
	case b.strValued(s.Cond):
		b.stmtFallback(s)
		return
	default:
		// A string comparison: the closure tier evaluates the condition,
		// the branches still lower natively.
		cond = b.evalFallback(b.c.expr(s.Cond))
	}
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
	if !b.storeFast(s.Var) || b.hasStr(s.Lo) || b.hasStr(s.Hi) || (s.Step != nil && b.hasStr(s.Step)) {
		b.stmtFallback(s)
		return
	}

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
	head := b.here()
	b.emit(bForIter, fdIdx)

	// A body that never stores the variable reads it from the loop's value
	// register, and a fully static trip space additionally gives the
	// variable a value-range fact for bounds-check elimination. (An inner
	// DO over the same variable is a store, so neither can already be set.)
	direct := b.loadFast(s.Var) && !killsName(s.Body, s.Var)
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
	for _, pc := range lf.stmtPatches {
		b.bp.code[pc].b = contPC
		b.bp.code[pc].c = endPC
	}
	if direct {
		delete(b.loopRegs, s.Var)
		delete(b.facts, s.Var)
	}
}

// --- expression lowering ---

// expr lowers an expression no character value can reach (!hasStr(e)).
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
	// Literals always fold; anything else unmodeled goes to the closure.
	return b.evalFallback(b.c.expr(e))
}

func (b *bc) identLoad(e *ftn.Ident) rv {
	if !b.loadFast(e.Name) {
		return b.evalFallback(b.c.identRead(e))
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

// ref lowers name(args): a native array access when the array is provably
// non-nil, the intrinsic path when the name can never be an array, and the
// closure tier for the runtime-dispatched remainder (dummy arrays).
func (b *bc) ref(e *ftn.Ref) rv {
	s := b.c.syms[e.Name]
	if s == nil || s.aslot < 0 {
		return b.intrinsic(e)
	}
	g := b.arrInfo[e.Name]
	if g == nil {
		return b.evalFallback(b.c.expr(e))
	}
	subs := b.lowerSubs(e.Args)
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

func (b *bc) intrinsic(e *ftn.Ref) rv {
	name := e.Name
	pos := e.Pos()
	args := b.lowerSubs(e.Args)
	b.pending[kOp]++
	switch {
	case name == "mpi_wtime":
		b.flush()
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
	if len(args) > b.bp.maxArgs {
		b.bp.maxArgs = len(args)
	}
	b.bp.intrs = append(b.bp.intrs, intrDesc{name: name, args: regsOf(args), pos: pos})
	b.flush()
	dst := b.newReg()
	b.emit(bIntr, dst, int32(len(b.bp.intrs)-1))
	return rv{reg: dst, k: kUnknown}
}
