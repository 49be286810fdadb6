// Slices. A tuning search ranks its candidates by makespan, and a makespan
// depends on a program's data only where data reaches a branch, a loop bound,
// a subscript that can fault or that addresses an MPI buffer, an MPI argument
// (count, datatype, peer, tag, request), an instruction that can raise, or
// mpi_wtime. A unit's slice is its lowered bprog filtered down to what reaches
// those uses: every charge, every MPI call, every in-flight check and every
// instruction whose value one of them reads is kept; every other instruction
// is dropped. The same bexec runs the slice: a dropped instruction becomes a
// jump to the next kept one, so every pc, jump target and code range of the
// lowering stands. A dropped element access of an array that some MPI call
// takes as a buffer, and a dropped checked one, become probes — the address,
// the bounds check and the in-flight check, with no element moved — so the
// slice raises what the program raises and refuses what its recording
// refuses, at the same point.
//
// Locations. The analysis tracks registers per unit and locations program-
// wide: every unit's scalar, named-constant and array slots, with a dummy
// sharing its location with every actual a CALL binds to it (a cell by
// reference, an array or an element's view). A location is needed when a kept
// instruction reads it — and then every store to it is kept. An array nothing
// needs is allocated as a shape (interp.NewShape): bounds and watch, no
// elements, and a transfer from or into a shape moves no payload
// (interp.MPI's post). Once the slice reads an array a receive writes, it
// reads every array a send reads, so every payload that can reach it is
// data. A program that reads mpi_wtime (never recorded) or is not lowered has
// no slice: its price is its measurement.
//
// Folds. An innermost loop whose slice body is straight-line — charges,
// integer arithmetic, private scalars, invariant loads and probes — runs its
// iterations but the last as one Compute of their charge vectors, once the
// values its kept instructions compute are bounded by interval arithmetic over
// the DO variable's range and those bounds prove that no divisor is zero, no
// subscript leaves its dimension or its storage, and no probed element is
// marked by an open request. The last iteration runs as the slice does, which
// leaves every private scalar and loop register as the program leaves them.
// When any bound fails — an overflow, a possible fault or a marked element —
// the loop runs instruction by instruction and finds exactly what the
// program finds. Charges are additive between MPI calls (bytecode.go), so the
// recording's charge counts and the clock are the program's either way.
package exec

import (
	"math"

	"repro/internal/interp"
	"repro/internal/netsim"
)

// slicer derives the slices of a lowered program's units.
type slicer struct {
	units []*unit
	// regs marks, per unit, the registers the slice computes.
	regs [][]bool
	// Location numbering: unit ui's scalar slot s is sBase[ui]+s, its
	// named-constant slot cBase[ui]+c, its array slot aBase[ui]+a.
	sBase, cBase, aBase []int
	parent              []int
	// By location root: the slice reads it (need); some MPI call takes the
	// array as a buffer (fence), a receive writes it (into), a send reads it
	// (out).
	need, fence, into, out []bool
	more                   bool
}

// sliceForm derives every unit's slice once (Program.sliceOnce) and reports
// why the program has none, "" when every unit's sbp is set.
func (p *Program) sliceForm() string {
	p.sliceOnce.Do(func() {
		switch {
		case p.routed != "":
			p.unsliced = "not lowered"
			return
		case p.Bytecode() != nil && p.timed:
			p.unsliced = "reads mpi_wtime"
			return
		}
		s := newSlicer(p)
		s.bind()
		for s.more = true; s.more; {
			s.more = false
			for ui := range s.units {
				s.visitUnit(ui)
			}
			s.feedReceives()
		}
		for ui, u := range s.units {
			u.sbp = s.build(ui)
		}
	})
	return p.unsliced
}

func newSlicer(p *Program) *slicer {
	s := &slicer{units: append([]*unit{p.main}, p.subs...)}
	n := 0
	for _, u := range s.units {
		s.regs = append(s.regs, make([]bool, u.bp.nreg))
		s.sBase = append(s.sBase, n)
		n += u.nscal
		s.cBase = append(s.cBase, n)
		n += u.nconst
		s.aBase = append(s.aBase, n)
		n += u.narr
	}
	s.parent = make([]int, n)
	for i := range s.parent {
		s.parent[i] = i
	}
	s.need, s.fence, s.into, s.out = make([]bool, n), make([]bool, n), make([]bool, n), make([]bool, n)
	return s
}

func (s *slicer) find(i int) int {
	for s.parent[i] != i {
		s.parent[i] = s.parent[s.parent[i]]
		i = s.parent[i]
	}
	return i
}

func (s *slicer) union(a, b int) { s.parent[s.find(a)] = s.find(b) }

func (s *slicer) unitOf(u *unit) int {
	for i, v := range s.units {
		if v == u {
			return i
		}
	}
	return -1
}

// bind shares each dummy's locations with the actuals CALLs bind to it, then
// marks the arrays MPI calls take as buffers: every one is fenced, a
// receive's is written by the transfer, a send's read by it, and one whose
// elements the binding reads itself (mpi_waitall's requests) is needed.
func (s *slicer) bind() {
	for ui, u := range s.units {
		bp := u.bp
		for _, ins := range bp.code {
			if ins.op != bCall {
				continue
			}
			d := &bp.calls[ins.a]
			si := s.unitOf(d.sub)
			for i := range d.args {
				a := &d.args[i]
				if a.aslot >= 0 {
					s.union(s.aBase[ui]+int(a.aslot), s.aBase[si]+d.sub.paramArr[i])
				}
				if a.name >= 0 {
					if sl := bp.names[a.name].s.sslot; sl >= 0 {
						s.union(s.sBase[ui]+sl, s.sBase[si]+d.sub.paramScal[i])
					}
				}
			}
		}
	}
	for ui, u := range s.units {
		bp := u.bp
		for _, ins := range bp.code {
			if ins.op != bMPI {
				continue
			}
			d := &bp.calls[ins.a]
			for i := range d.args {
				role, a := d.mpi.Roles[i], &d.args[i]
				if role&interp.ArgBuffer == 0 || a.aslot < 0 {
					continue
				}
				l := s.find(s.aBase[ui] + int(a.aslot))
				s.fence[l] = true
				switch {
				case role&interp.ArgInto != 0:
					s.into[l] = true
				case role&interp.ArgRead != 0:
					s.need[l] = true
				default:
					s.out[l] = true
				}
			}
		}
	}
}

// feedReceives needs every array a send reads once the slice reads an array a
// receive writes: whichever send a receive matches, its payload is then data.
func (s *slicer) feedReceives() {
	for l, into := range s.into {
		if into && s.need[l] {
			for l, out := range s.out {
				if out {
					s.loc(l)
				}
			}
			return
		}
	}
}

// reg marks register r of unit ui computed.
func (s *slicer) reg(ui int, r int32) {
	if r >= 0 && !s.regs[ui][r] {
		s.regs[ui][r] = true
		s.more = true
	}
}

func (s *slicer) regsOf(ui int, rs []int32) {
	for _, r := range rs {
		s.reg(ui, r)
	}
}

// loc marks location l needed.
func (s *slicer) loc(l int) {
	if l = s.find(l); !s.need[l] {
		s.need[l] = true
		s.more = true
	}
}

func (s *slicer) needs(l int) bool  { return s.need[s.find(l)] }
func (s *slicer) fenced(l int) bool { return s.fence[s.find(l)] }

// geoSubs are the subscript registers of an unchecked access.
func geoSubs(g *geoDesc, ins bins) []int32 {
	switch ins.op {
	case bLoadU1, bLoadU2, bLoadU3:
		return g.sub[:ins.op-bLoadU1+1]
	}
	return g.sub[:ins.op-bStoreU1+1]
}

// visitUnit applies the marking rules to every instruction of unit ui: what
// a kept instruction reads is computed.
func (s *slicer) visitUnit(ui int) {
	u := s.units[ui]
	bp, need := u.bp, s.regs[ui]
	scal := func(slot int32) int { return s.sBase[ui] + int(slot) }
	arr := func(slot int32) int { return s.aBase[ui] + int(slot) }
	for pc, ins := range bp.code {
		switch ins.op {
		case bJF, bJT, bJFChk:
			s.reg(ui, ins.b)
		case bBoolChk:
			s.reg(ui, ins.a)
		case bMove:
			if need[ins.a] {
				s.reg(ui, ins.b)
			}
		case bLoadS:
			if need[ins.a] {
				s.loc(scal(ins.b))
			}
		case bStoreS:
			if s.needs(scal(ins.a)) {
				s.reg(ui, ins.b)
			}
		case bLoadN:
			if need[ins.a] {
				d := bp.names[ins.b].s
				if d.sslot >= 0 {
					s.loc(scal(int32(d.sslot)))
				}
				if d.cslot >= 0 {
					s.loc(s.cBase[ui] + d.cslot)
				}
			}
		case bStoreN:
			if d := bp.names[ins.a].s; d.sslot >= 0 && s.needs(scal(int32(d.sslot))) {
				s.reg(ui, ins.b)
			}
		case bSetConst:
			if s.needs(s.cBase[ui] + int(ins.a)) {
				s.reg(ui, ins.b)
			}
		case bDeclS:
			if ins.b >= 0 && s.needs(scal(ins.a)) {
				s.reg(ui, ins.b)
			}
		case bDeclA:
			for _, dim := range bp.decls[ins.a].dims {
				s.reg(ui, dim[0])
				s.reg(ui, dim[1])
			}
		case bCall:
			d := &bp.calls[ins.a]
			si := s.unitOf(d.sub)
			for i := range d.args {
				a := &d.args[i]
				s.regsOf(ui, a.subRegs)
				if a.val != (lazy{}) && s.needs(s.sBase[si]+d.sub.paramScal[i]) {
					s.reg(ui, a.val.reg)
				}
			}
		case bMPI:
			d := &bp.calls[ins.a]
			for i := range d.args {
				a := &d.args[i]
				s.regsOf(ui, a.subRegs)
				if d.mpi.Roles[i]&interp.ArgValue != 0 {
					s.reg(ui, a.val.reg)
				}
			}
		case bIntr:
			if need[ins.a] || mayFail(&bp.intrs[ins.b]) {
				s.regsOf(ui, bp.intrs[ins.b].args)
			}
		case bForPrep:
			fd := &bp.fors[ins.a]
			s.reg(ui, fd.loReg)
			s.reg(ui, fd.hiReg)
			s.reg(ui, fd.stepReg)
		case bLoadA:
			d := &bp.accs[ins.b]
			s.regsOf(ui, d.subs)
			if need[ins.a] {
				s.loc(arr(d.aslot))
			}
		case bStoreA:
			d := &bp.accs[ins.a]
			s.regsOf(ui, d.subs)
			if s.needs(arr(d.aslot)) {
				s.reg(ui, ins.b)
			}
		case bLoadU1, bLoadU2, bLoadU3:
			g := &bp.geos[ins.b]
			if need[ins.a] {
				s.loc(arr(g.aslot))
			}
			if need[ins.a] || s.fenced(arr(g.aslot)) {
				s.regsOf(ui, geoSubs(g, ins))
			}
		case bStoreU1, bStoreU2, bStoreU3:
			g := &bp.geos[ins.a]
			if s.needs(arr(g.aslot)) {
				s.reg(ui, ins.b)
			}
			if s.needs(arr(g.aslot)) || s.fenced(arr(g.aslot)) {
				s.regsOf(ui, geoSubs(g, ins))
			}
		case bNegI, bNeg, bNot, bNotChk, bAddI, bSubI, bMulI, bDivI, bPowI, bModI, bMinI, bMaxI,
			bEqI, bNeI, bLtI, bLeI, bGtI, bGeI, bAdd, bSub, bMul, bDiv, bPow, bMod, bEq, bNe, bLt, bLe, bGt, bGe:
			if _, raises := bp.errAt[int32(pc)]; raises || need[ins.a] {
				s.reg(ui, ins.b)
				s.reg(ui, ins.c)
			}
		}
	}
}

// mayFail reports whether an intrinsic call can raise: off its arity it
// always does, and mod by an integer zero. Two integer zeros are arguments
// under which every intrinsic that can raise does.
func mayFail(d *intrDesc) bool {
	_, err := interp.EvalIntrinsic(d.name, make([]interp.Value, len(d.args)))
	return err != nil
}

// sliceIns is what the slice runs at pc of unit ui: the instruction itself,
// a probe standing for an element access, or nothing (ok false).
func (s *slicer) sliceIns(ui, pc int) (bins, bool) {
	bp, need := s.units[ui].bp, s.regs[ui]
	ins := bp.code[pc]
	arr := func(slot int32) int { return s.aBase[ui] + int(slot) }
	switch ins.op {
	case bPrint:
		return ins, false
	case bMove, bLoadS:
		return ins, need[ins.a]
	case bIntr:
		return ins, need[ins.a] || mayFail(&bp.intrs[ins.b])
	case bStoreS:
		return ins, s.needs(s.sBase[ui] + int(ins.a))
	case bLoadA:
		if need[ins.a] {
			return ins, true
		}
		return bins{op: bProbeLA, a: ins.b, b: -1, c: -1}, true
	case bStoreA:
		if s.needs(arr(bp.accs[ins.a].aslot)) {
			return ins, true
		}
		return bins{op: bProbeSA, a: ins.a, b: -1, c: -1}, true
	case bLoadU1, bLoadU2, bLoadU3:
		g := &bp.geos[ins.b]
		if need[ins.a] {
			return ins, true
		}
		return bins{op: bProbeLU, a: ins.b, b: -1, c: int32(ins.op-bLoadU1) + 1}, s.fenced(arr(g.aslot))
	case bStoreU1, bStoreU2, bStoreU3:
		g := &bp.geos[ins.a]
		if s.needs(arr(g.aslot)) {
			return ins, true
		}
		return bins{op: bProbeSU, a: ins.a, b: -1, c: int32(ins.op-bStoreU1) + 1}, s.fenced(arr(g.aslot))
	case bNegI, bNeg, bNot, bNotChk, bAddI, bSubI, bMulI, bDivI, bPowI, bModI, bMinI, bMaxI,
		bEqI, bNeI, bLtI, bLeI, bGtI, bGeI, bAdd, bSub, bMul, bDiv, bPow, bMod, bEq, bNe, bLt, bLe, bGt, bGe:
		_, raises := bp.errAt[int32(pc)]
		return ins, raises || need[ins.a]
	}
	return ins, true
}

// build assembles unit ui's slice: the filtered code, a shape for every array
// declaration the slice does not read, and a fold for every loop that can
// fold.
func (s *slicer) build(ui int) *bprog {
	u := s.units[ui]
	sp := *u.bp
	sp.code = make([]bins, len(u.bp.code))
	dropped := make([]bool, len(sp.code))
	next := int32(len(sp.code))
	for pc := len(sp.code) - 1; pc >= 0; pc-- {
		ins, ok := s.sliceIns(ui, pc)
		if !ok {
			ins, dropped[pc] = bins{op: bJmp, a: next, b: -1, c: -1}, true
		} else {
			next = int32(pc)
		}
		sp.code[pc] = ins
	}
	sp.decls = append([]declDesc(nil), u.bp.decls...)
	for i := range sp.decls {
		sp.decls[i].shape = !s.needs(s.aBase[ui] + int(sp.decls[i].aslot))
	}
	sp.fors = append([]forDesc(nil), u.bp.fors...)
	for i := range sp.fors {
		fd := &sp.fors[i]
		fd.nvec = -1
		if fd.fold = planFold(&sp, fd, dropped, u.paramScal); fd.fold != nil {
			fd.inner, fd.nvec = true, 1 // bexec enters runStrips, which folds
		}
	}
	return &sp
}

// maxFoldDepth bounds the loops a fold nests, its own included.
const maxFoldDepth = 8

// foldPlan is a loop's fold: its slice body's kept instructions in order,
// those of the loops nested in it included.
type foldPlan struct {
	ops []foldOp
	// varies marks the registers the nest writes, the DO variables' among
	// them; every other register the ops read is invariant.
	varies []bool
}

// foldOp is one op of a fold. A bLoadS carries in c the register whose
// interval is the cell's value — the one stored to it, or a DO variable's —
// or −1 for a cell no op of the nest stores. A nested loop's bForPrep carries
// in skip the index of its bForNext, where a loop that makes no trip goes, and
// in stores whether its body stores a cell: a later load of that cell is
// bounded by a register the body sets, so such a loop cannot be skipped.
type foldOp struct {
	ins    bins
	skip   int32
	stores bool
}

// foldScope is one loop body open while a fold is planned: the cells it
// loaded that it had not stored before, which it must not store after.
type foldScope map[int32]bool

// planFold plans the fold of loop fd of slice sp, nil when its body is not
// straight-line over what a fold bounds: charges, integer arithmetic, probes,
// cell loads and stores, and nested DO loops of the same. A cell is private:
// each loop body that stores it stores it before it loads it, or only after
// the loop ends — no value is carried from one iteration to the next — and no
// cell is a dummy's (another dummy may alias it).
func planFold(sp *bprog, fd *forDesc, dropped []bool, params []int) *foldPlan {
	f := &foldPlan{varies: make([]bool, sp.nreg)}
	f.varies[fd.vReg] = true
	type source struct{ reg, depth int32 }
	stored := map[int32]source{fd.sslot: {fd.vReg, 0}}
	scopes := []foldScope{{}}
	var preps []int // the open nested loops' bForPrep op indices
	dummy := func(slot int32) bool {
		for _, p := range params {
			if int32(p) == slot {
				return true
			}
		}
		return false
	}
	// store records a store of reg to cell at the innermost scope, false when
	// an open scope loaded the cell from before it began.
	store := func(cell, reg int32) bool {
		for _, sc := range scopes {
			if sc[cell] {
				return false
			}
		}
		stored[cell] = source{reg, int32(len(scopes) - 1)}
		return !dummy(cell)
	}
	for pc := fd.headPC + 1; pc < fd.endPC-1; pc++ {
		if dropped[pc] {
			continue
		}
		ins := sp.code[pc]
		op := foldOp{ins: ins}
		switch ins.op {
		case bCharge, bProbeLA, bProbeSA, bProbeLU, bProbeSU:
		case bNegI, bAddI, bSubI, bMulI, bDivI, bModI, bMinI, bMaxI, bMove:
			f.varies[ins.a] = true
		case bLoadS:
			if dummy(ins.b) {
				return nil
			}
			src, ok := stored[ins.b]
			if !ok {
				src.depth = -1
			}
			for d := int(src.depth) + 1; d < len(scopes); d++ {
				scopes[d][ins.b] = true
			}
			op.ins.c = -1
			if ok {
				op.ins.c = src.reg
			}
			f.varies[ins.a] = true
		case bStoreS:
			if !store(ins.a, ins.b) {
				return nil
			}
			for _, p := range preps {
				f.ops[p].stores = true
			}
		case bForPrep:
			preps = append(preps, len(f.ops))
		case bForIter:
			m := &sp.fors[ins.a]
			if len(preps) == 0 || f.ops[preps[len(preps)-1]].ins.a != ins.a || !store(m.sslot, m.vReg) || len(scopes) == maxFoldDepth {
				return nil
			}
			f.varies[m.vReg] = true
			for _, p := range preps[:len(preps)-1] {
				f.ops[p].stores = true
			}
			scopes = append(scopes, foldScope{})
			stored[m.sslot] = source{m.vReg, int32(len(scopes) - 1)}
		case bForNext:
			if len(preps) == 0 {
				return nil
			}
			f.ops[preps[len(preps)-1]].skip = int32(len(f.ops))
			preps, scopes = preps[:len(preps)-1], scopes[:len(scopes)-1]
			for cell, src := range stored {
				if src.depth >= int32(len(scopes)) {
					stored[cell] = source{src.reg, int32(len(scopes) - 1)}
				}
			}
		default:
			return nil
		}
		f.ops = append(f.ops, op)
	}
	return f
}

// ival is the closed interval [lo, hi] of int64 values.
type ival struct{ lo, hi int64 }

// doRange is the interval a DO variable spans over trips ≥ 1 iterations
// from lo by step, false on overflow.
func doRange(lo, step, trips int64) (ival, bool) {
	span, ok := mulI(ival{trips - 1, trips - 1}, ival{step, step})
	if !ok {
		return ival{}, false
	}
	return addI(ival{lo, lo}, ival{min(span.lo, 0), max(span.lo, 0)})
}

// foldLoop runs all but the last of the remaining iterations of loop fd,
// entered with its loop registers set, as one charge when its fold's bounds
// hold (see the file comment), and returns how many it ran: none when they do
// not, or when fewer than two iterations remain. The iterations of the loops
// nested in it count as often as they run: a nested loop's bounds must not
// vary, and one that makes no trips must store no cell.
func (bp *bprog) foldLoop(x *rctx, fr *frame, regs []reg, fd *forDesc) int64 {
	f := fd.fold
	trips := int64(regs[fd.tripsReg].bits)
	if trips < 2 {
		return 0
	}
	n := trips - 1
	v0, step := int64(regs[fd.vReg].bits), int64(regs[fd.stepValReg].bits)
	if cap(x.ivs) < len(f.varies) {
		x.ivs = make([]ival, len(f.varies))
	}
	iv := x.ivs[:len(f.varies)]
	var ok bool
	if iv[fd.vReg], ok = doRange(v0, step, n); !ok {
		return 0
	}
	// w is how often an op runs per folded iteration: the product of the
	// trips of the nested loops open around it.
	w, depth := int64(1), 0
	var ws, finals [maxFoldDepth]int64
	var t netsim.Time
	var cnt interp.ChargeCounts
	for i := 0; i < len(f.ops); i++ {
		ins := f.ops[i].ins
		switch ins.op {
		case bCharge:
			t += x.tab[ins.a] * netsim.Time(w)
			for k, c := range x.prog.vecs[ins.a] {
				cnt[k] += c * w
			}
		case bForPrep:
			m := &bp.fors[ins.a]
			lo, ok1 := f.operand(regs, iv, m.loReg)
			hi, ok2 := f.operand(regs, iv, m.hiReg)
			st := ival{1, 1}
			if m.stepReg >= 0 {
				st, ok = f.operand(regs, iv, m.stepReg)
			} else {
				ok = true
			}
			if !ok || !ok1 || !ok2 || lo.lo != lo.hi || hi.lo != hi.hi || st.lo != st.hi || st.lo == 0 {
				return 0
			}
			mt := max((hi.lo-lo.lo+st.lo)/st.lo, 0)
			if mt == 0 {
				if f.ops[i].stores {
					return 0
				}
				iv[m.vReg] = lo
				i = int(f.ops[i].skip)
				continue
			}
			if iv[m.vReg], ok = doRange(lo.lo, st.lo, mt); !ok {
				return 0
			}
			ws[depth], finals[depth] = w, lo.lo+mt*st.lo
			if w, ok = mul64(w, mt); !ok {
				return 0
			}
			depth++
		case bForIter:
		case bForNext:
			depth--
			w = ws[depth]
			iv[bp.fors[ins.a].vReg] = ival{finals[depth], finals[depth]}
		default:
			if !f.bound(bp, fr, regs, iv, ins) {
				return 0
			}
		}
	}
	x.rank.Compute(t * netsim.Time(n))
	if x.trace != nil {
		x.trace.Charge(&cnt, n)
	}
	regs[fd.vReg].bits = uint64(v0 + n*step)
	regs[fd.tripsReg].bits = 1
	return n
}

// operand is register r's interval: its bound when the body writes it, else
// the integer it holds (false when it holds another kind).
func (f *foldPlan) operand(regs []reg, iv []ival, r int32) (ival, bool) {
	if f.varies[r] {
		return iv[r], true
	}
	if regs[r].k != interp.KInt {
		return ival{}, false
	}
	v := int64(regs[r].bits)
	return ival{v, v}, true
}

// bound bounds one op of the fold over every folded iteration, false when it
// cannot: an overflow, a divisor interval holding zero, a subscript outside
// its dimension or its storage, a probed element an open request marks.
func (f *foldPlan) bound(bp *bprog, fr *frame, regs []reg, iv []ival, ins bins) bool {
	switch ins.op {
	case bLoadS:
		cell := fr.scal[ins.b]
		if cell == nil || cell.Kind != interp.KInt {
			return false
		}
		if ins.c < 0 {
			iv[ins.a] = ival{cell.I, cell.I}
			return true
		}
		v, ok := f.operand(regs, iv, ins.c)
		iv[ins.a] = v
		return ok
	case bStoreS:
		return true
	case bMove:
		v, ok := f.operand(regs, iv, ins.b)
		iv[ins.a] = v
		return ok
	case bNegI:
		v, ok := f.operand(regs, iv, ins.b)
		if !ok || v.lo == math.MinInt64 {
			return false
		}
		iv[ins.a] = ival{-v.hi, -v.lo}
		return true
	case bProbeLA, bProbeSA, bProbeLU, bProbeSU:
		return f.probe(bp, fr, regs, iv, ins)
	}
	a, ok := f.operand(regs, iv, ins.b)
	if !ok {
		return false
	}
	b, ok := f.operand(regs, iv, ins.c)
	if !ok {
		return false
	}
	var v ival
	switch ins.op {
	case bAddI:
		v, ok = addI(a, b)
	case bSubI:
		if ok = b.lo != math.MinInt64; ok {
			v, ok = addI(a, ival{-b.hi, -b.lo})
		}
	case bMulI:
		v, ok = mulI(a, b)
	case bDivI:
		v, ok = divI(a, b)
	case bModI:
		v, ok = modI(a, b)
	case bMinI:
		v = ival{min(a.lo, b.lo), min(a.hi, b.hi)}
	case bMaxI:
		v = ival{max(a.lo, b.lo), max(a.hi, b.hi)}
	}
	iv[ins.a] = v
	return ok
}

// probe bounds a probe's element offsets over the folded iterations, and
// requires them inside the dimensions (a checked access), inside the storage
// and clear of every open request's marks.
func (f *foldPlan) probe(bp *bprog, fr *frame, regs []reg, iv []ival, ins bins) bool {
	var a *interp.Array
	var off ival
	term := func(v ival, lo, stride int64) bool {
		t, ok := mulI(ival{v.lo - lo, v.hi - lo}, ival{stride, stride})
		if ok {
			off, ok = addI(off, t)
		}
		return ok
	}
	if ins.op == bProbeLA || ins.op == bProbeSA {
		d := &bp.accs[ins.a]
		if a = fr.arr[d.aslot]; a == nil || len(d.subs) != len(a.Dims) {
			return false
		}
		for i, r := range d.subs {
			v, ok := f.operand(regs, iv, r)
			if dim := a.Dims[i]; !ok || v.lo < dim.Lo || v.hi > dim.Hi || !term(v, dim.Lo, a.Stride(i)) {
				return false
			}
		}
	} else {
		g := &bp.geos[ins.a]
		a, off = fr.arr[g.aslot], ival{g.base, g.base}
		for i := int32(0); i < ins.c; i++ {
			v, ok := f.operand(regs, iv, g.sub[i])
			if !ok || !term(v, 0, g.stride[i]) {
				return false
			}
		}
	}
	store := ins.op == bProbeSA || ins.op == bProbeSU
	return a.InWindow(off.lo, off.hi-off.lo+1) && !a.Marked(off.lo, off.hi, store)
}

// addI is a + b, false on overflow.
func addI(a, b ival) (ival, bool) {
	lo, hi := a.lo+b.lo, a.hi+b.hi
	if (b.lo < 0) != (lo < a.lo) || (b.hi < 0) != (hi < a.hi) {
		return ival{}, false
	}
	return ival{lo, hi}, true
}

// mul64 is a·b, false on overflow.
func mul64(a, b int64) (int64, bool) {
	const small = 1 << 31
	if -small < a && a < small && -small < b && b < small {
		return a * b, true
	}
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a || (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64) {
		return 0, false
	}
	return p, true
}

// mulI is a·b, false on overflow.
func mulI(a, b ival) (ival, bool) {
	v := ival{math.MaxInt64, math.MinInt64}
	for _, x := range [2]int64{a.lo, a.hi} {
		for _, y := range [2]int64{b.lo, b.hi} {
			p, ok := mul64(x, y)
			if !ok {
				return ival{}, false
			}
			v = ival{min(v.lo, p), max(v.hi, p)}
		}
	}
	return v, true
}

// divI is a / b truncated, false when b may be zero or the quotient
// overflow. Over a box whose divisor keeps one sign the extremes are at the
// corners: real division is, and truncation is monotone.
func divI(a, b ival) (ival, bool) {
	if b.lo <= 0 && b.hi >= 0 || a.lo == math.MinInt64 && b.lo <= -1 && b.hi >= -1 {
		return ival{}, false
	}
	v := ival{math.MaxInt64, math.MinInt64}
	for _, x := range [2]int64{a.lo, a.hi} {
		for _, y := range [2]int64{b.lo, b.hi} {
			q := x / y
			v = ival{min(v.lo, q), max(v.hi, q)}
		}
	}
	return v, true
}

// modI is a % b truncated (the sign of the dividend), false when b may be
// zero.
func modI(a, b ival) (ival, bool) {
	if b.lo <= 0 && b.hi >= 0 || b.lo == math.MinInt64 {
		return ival{}, false
	}
	lo, hi := b.lo, b.hi // the divisors' magnitudes
	if lo < 0 {
		lo, hi = -b.hi, -b.lo
	}
	// |a % b| < |b| ≤ hi, and a dividend closer to zero than every divisor
	// is its own remainder.
	switch {
	case a.lo >= 0 && a.hi < lo, a.hi <= 0 && a.lo > -lo:
		return a, true
	case a.lo >= 0:
		return ival{0, min(a.hi, hi-1)}, true
	case a.hi <= 0:
		return ival{max(a.lo, 1-hi), 0}, true
	}
	return ival{max(a.lo, 1-hi), min(a.hi, hi-1)}, true
}
