// Strip-wise execution of innermost DO loops. An eligible loop (see
// stripPlan) is not dispatched once per instruction per iteration: its
// body — the same bins the scalar bexec runs — is re-interpreted a strip
// of stripLen iterations ("lanes") at a time, each instruction one tight Go
// loop over the strip. Registers written in the body whose value differs
// from lane to lane are []int64 lane vectors; everything else (constants,
// values from outside the loop, anything computed from those alone) stays
// a scalar in the ordinary register file and is computed once per strip by
// the scalar bexec itself.
//
// A strip runs in three steps. Compute: every lane of every instruction,
// with no side effect outside the lane vectors and the body's own
// invariant registers (which the scalar replay recomputes identically).
// Validate, folded into compute: every lane of every divisor must be
// non-zero and every lane of every subscript in bounds before the divide
// or the load that uses it. Commit: only then are array stores made (lane
// order), private scalars and the charge (lanes × the body's charge
// vectors) written. A strip that would fault has committed nothing; the
// loop registers are left at its first lane and the scalar bexec replays it,
// raising the walker's positioned error at the exact iteration and time.
//
// Affine vectors. Inside one strip a lane vector is affine when lane l holds
// base + l·step: the DO variable; a + or − of operands each affine or
// invariant; a * of an affine operand by an invariant; a unary − of an
// affine operand; a load of a private cell holding an affine register.
// stripPlan marks these registers (bp.aff) from the instructions alone, and
// compute keeps such a vector as its (base, step) form, writing its lanes
// only when a lane-wise consumer asks (lanes): non-affine arithmetic, array
// loads and stores, subscripts, the commit of a private scalar. The lanes so
// written equal the lane-wise results bit for bit, overflow included:
// reduction modulo 2⁶⁴ is a ring homomorphism ℤ → ℤ/2⁶⁴, so evaluating
// (b + l·s) ± c, (b + l·s)·c or −(b + l·s) lane by lane in wrapping
// arithmetic gives the same word as base' + l·step' with base' and step'
// computed in wrapping arithmetic. Only one consumer needs true values: a
// mod or / of an affine dividend by a non-zero invariant divisor m, which
// instead of one division per lane divides base and step once and steps the
// remainder (r += rs; r ≥ m ⇒ r −= m, q++; affineDivMod). It runs when
// 0 < m ≤ 2⁶², |step| ≤ 2⁵⁶, |base| ≤ 2⁶¹ and the first and last lanes have
// one sign — then no lane (|x| < 2⁶²), remainder sum (< 2m) or quotient
// wraps, and truncated division of a one-signed strip is floored division of
// |x| with the sign put back — and otherwise falls back to the per-lane loop,
// which also keeps raising a zero divisor by failing the strip. The same
// bounds make an affine subscript's lanes run straight from its first lane
// to its last, so offsets checks such a subscript at those two and sums it
// into one affine offset instead of writing and checking its lanes.
package exec

import (
	"slices"
	"sync"

	"repro/internal/interp"
	"repro/internal/netsim"
)

// stripLen is the number of iterations one strip covers, chosen by
// measurement on the direct family's fill loop (35 instructions, 8 mods;
// 133 ns per iteration scalar): 8 lanes 137 ns, 16 lanes 64–97, 32 lanes
// 59–77, 64 lanes 52–54, 128 to 1024 lanes 49–54. 64 is the shortest strip
// on the plateau, and keeps that loop's 40 lane vectors (20 KiB) inside L1.
const stripLen = 64

// stripMin is the fewest iterations worth a strip. Measured on a
// 5-instruction rank-3 copy body, entering a strip costs ~100 ns plus ~5 ns
// a lane against 45 ns per scalar iteration: break-even between 2 and 3.
// The 2-trip copy loops of fine-tiled variants stay scalar.
const stripMin = 3

// The bounds under which an affine vector's lanes and the remainder
// recurrence cannot wrap (package comment): lanes stay inside ±2⁶² over a
// strip, remainder sums below 2m ≤ 2⁶³.
const (
	maxBase    = 1 << 61
	maxStep    = 1 << 56
	maxDivisor = 1 << 62
)

// straight: lanes base + l·step, l < stripLen, cannot wrap.
func straight(base, step int64) bool {
	return -maxBase <= base && base <= maxBase && -maxStep <= step && step <= maxStep
}

// stripScratch is the lane-vector storage of one rank's run: nvec vectors
// of stripLen lanes and their forms, sized by the widest eligible loop the
// run has entered. It is recycled across runs through stripPool, never hung
// on the shared bprog (programs run concurrently).
type stripScratch struct {
	v     []int64
	forms []affine
}

// affine is a lane vector's form in the current strip: lane l is
// base + l·step, and lanes says whether the lanes are written. A vector
// that is not affine is always lanes.
type affine struct {
	base, step int64
	lanes      bool
}

var stripPool = sync.Pool{New: func() interface{} { return new(stripScratch) }}

// --- lowering-time eligibility ---

// stripScan is the analysis scratch reused across the loops of one
// lowering: frame cells and array slots the body has loaded and stored so
// far, and (second pass) the register each stored cell currently holds.
type stripScan struct {
	ldCells, stCells []int32
	ldArrs, stArrs   []int32
	cellReg          []int32
}

// access names the array slot and subscript registers of an array
// instruction, checked or unchecked.
func (bp *bprog) access(ins bins) (aslot int32, subs []int32) {
	switch ins.op {
	case bLoadA:
		d := &bp.accs[ins.b]
		return d.aslot, d.subs
	case bStoreA:
		d := &bp.accs[ins.a]
		return d.aslot, d.subs
	case bLoadU1, bLoadU2, bLoadU3:
		g := &bp.geos[ins.b]
		return g.aslot, g.sub[:ins.op-bLoadU1+1]
	}
	g := &bp.geos[ins.a]
	return g.aslot, g.sub[:ins.op-bStoreU1+1]
}

// planStrips settles every strip candidate of the lowered unit: a loop the
// lowering found innermost, never storing its DO variable, and with every
// stored value, touched array and subscript statically integer. stripPlan
// decides the rest from the instructions.
func (b *bc) planStrips() {
	for i := range b.bp.fors {
		if fd := &b.bp.fors[i]; fd.nvec == 0 {
			fd.nvec = b.stripPlan(fd)
		}
	}
}

// stripPlan decides whether candidate loop fd can run strip-wise and, if so,
// assigns its lane vectors, returning how many it needs (-1: not
// eligible). It requires of the body, bForIter to bForNext exclusive:
//
//   - straight-line integer code only: bCharge, integer arithmetic,
//     bLoadS/bStoreS and array loads/stores of rank <= 3 — no jump, call,
//     generic (run-time-kinded) op, intrinsic call, clock read or loop;
//   - every frame cell the body stores is stored before it is loaded, so
//     the cell is private to an iteration (no value is carried from one
//     iteration to the next) and only the last lane's value survives;
//   - every array the body stores is stored by exactly one instruction and
//     never loaded in the body, so deferring the stores to the commit step
//     cannot change what any lane reads and lane order is store order.
//
// The second pass then marks as lane vectors the DO variable's register,
// every register computed from a lane vector, and one offset vector per
// array store (recorded in the instruction's free c operand, as is the
// source register of a load from a private cell; the scalar bexec reads
// neither), and marks the affine ones (see the package comment).
func (b *bc) stripPlan(fd *forDesc) int32 {
	bp, sc := b.bp, &b.scan
	body := bp.code[fd.headPC+1 : fd.endPC-1]
	sc.ldCells, sc.stCells = sc.ldCells[:0], sc.stCells[:0]
	sc.ldArrs, sc.stArrs = sc.ldArrs[:0], sc.stArrs[:0]
	for _, ins := range body {
		switch ins.op {
		case bCharge, bNegI, bAddI, bSubI, bMulI, bDivI, bPowI, bModI, bMinI, bMaxI:
		case bLoadS:
			if !slices.Contains(sc.stCells, ins.b) {
				sc.ldCells = append(sc.ldCells, ins.b)
			}
		case bStoreS:
			if slices.Contains(sc.ldCells, ins.a) {
				return -1
			}
			sc.stCells = append(sc.stCells, ins.a)
		case bLoadA, bLoadU1, bLoadU2, bLoadU3:
			aslot, subs := bp.access(ins)
			if len(subs) > 3 || slices.Contains(sc.stArrs, aslot) {
				return -1
			}
			sc.ldArrs = append(sc.ldArrs, aslot)
		case bStoreA, bStoreU1, bStoreU2, bStoreU3:
			aslot, subs := bp.access(ins)
			if len(subs) > 3 || slices.Contains(sc.stArrs, aslot) || slices.Contains(sc.ldArrs, aslot) {
				return -1
			}
			sc.stArrs = append(sc.stArrs, aslot)
		default:
			return -1
		}
	}

	if bp.lane == nil {
		bp.lane = make([]int32, bp.nreg)
		for r := range bp.lane {
			bp.lane[r] = -1
		}
		bp.aff = make([]bool, bp.nreg)
	}
	lane, aff := bp.lane, bp.aff
	lane[fd.vReg], aff[fd.vReg] = 0, true
	next := int32(1)
	vector := func(r int32, af bool) {
		lane[r], aff[r] = next, af
		next++
	}
	affOrInv := func(r int32) bool { return lane[r] < 0 || aff[r] }
	// cellReg pairs each cell stored so far with the register last stored.
	sc.cellReg = sc.cellReg[:0]
	for i := range body {
		ins := &body[i]
		switch ins.op {
		case bCharge:
		case bStoreS:
			sc.cellReg = append(sc.cellReg, ins.a, ins.b)
		case bLoadS:
			for j := len(sc.cellReg) - 2; j >= 0; j -= 2 {
				if sc.cellReg[j] == ins.b {
					ins.c = sc.cellReg[j+1]
					if lane[ins.c] >= 0 {
						vector(ins.a, aff[ins.c])
					}
					break
				}
			}
		case bNegI:
			if lane[ins.b] >= 0 {
				vector(ins.a, aff[ins.b])
			}
		case bLoadA, bLoadU1, bLoadU2, bLoadU3:
			_, subs := bp.access(*ins)
			for _, r := range subs {
				if lane[r] >= 0 {
					vector(ins.a, false)
					break
				}
			}
		case bStoreA, bStoreU1, bStoreU2, bStoreU3:
			ins.c = next
			next++
		default:
			if lane[ins.b] >= 0 || lane[ins.c] >= 0 {
				af := false
				switch ins.op {
				case bAddI, bSubI:
					af = affOrInv(ins.b) && affOrInv(ins.c)
				case bMulI: // by an invariant only
					af = affOrInv(ins.b) && affOrInv(ins.c) && (lane[ins.b] < 0 || lane[ins.c] < 0)
				}
				vector(ins.a, af)
			}
		}
	}
	return next
}

// --- execution ---

// stripRun is the state of one loop's strip execution.
type stripRun struct {
	x     *rctx
	bp    *bprog
	fr    *frame
	regs  []reg
	vecs  []int64
	forms []affine
	n     int // lanes in the current strip
}

func (s *stripRun) vec(i int32) []int64 {
	o := int(i) * stripLen
	return s.vecs[o : o+s.n : o+s.n]
}

// lanes returns lane vector i with its lanes written, writing an affine
// vector's from its form at the first ask in the strip.
func (s *stripRun) lanes(i int32) []int64 {
	d := s.vec(i)
	if f := &s.forms[i]; !f.lanes {
		for l := range d {
			d[l] = f.base + int64(l)*f.step
		}
		f.lanes = true
	}
	return d
}

// form is register r's affine form: its lane vector's, or an invariant's
// value with step 0.
func (s *stripRun) form(r int32) affine {
	if l := s.bp.lane[r]; l >= 0 {
		return affine{base: s.forms[l].base, step: s.forms[l].step}
	}
	return affine{base: int64(s.regs[r].bits)}
}

// span is register r's form when every lane lies between its first and its
// last: an invariant, or an affine vector within the no-wrap bounds.
func (s *stripRun) span(r int32) (affine, bool) {
	if s.bp.lane[r] >= 0 && !s.bp.aff[r] {
		return affine{}, false
	}
	f := s.form(r)
	return f, f.step == 0 || straight(f.base, f.step)
}

// affineOf is the form of the affine register ins writes, from its
// operands' forms, in the wrapping arithmetic the lanes would use.
func (s *stripRun) affineOf(ins bins) affine {
	switch ins.op {
	case bLoadS:
		return s.form(ins.c)
	case bNegI:
		x := s.form(ins.b)
		return affine{base: -x.base, step: -x.step}
	}
	x, y := s.form(ins.b), s.form(ins.c)
	switch ins.op {
	case bAddI:
		return affine{base: x.base + y.base, step: x.step + y.step}
	case bSubI:
		return affine{base: x.base - y.base, step: x.step - y.step}
	}
	// bMulI: one factor is invariant (step 0), so there is no l² term.
	return affine{base: x.base * y.base, step: x.base*y.step + x.step*y.base}
}

// runStrips executes the eligible loop fd, entered with its loop registers
// set by bForPrep, strip by strip for as long as strips run clean, and
// leaves the loop registers at the first iteration not executed — the end
// of the loop, or the first lane of a strip the scalar bexec must replay.
// It returns the number of iterations executed. A slice's loop folds
// instead (slice.go).
func (bp *bprog) runStrips(x *rctx, fr *frame, regs []reg, fd *forDesc) int64 {
	if fd.fold != nil {
		return bp.foldLoop(x, fr, regs, fd)
	}
	trips := int64(regs[fd.tripsReg].bits)
	if trips < stripMin {
		return 0
	}
	if x.strip == nil {
		x.strip = stripPool.Get().(*stripScratch)
	}
	if n := int(fd.nvec); len(x.strip.forms) < n {
		*x.strip = stripScratch{v: make([]int64, n*stripLen), forms: make([]affine, n)}
	}
	s := stripRun{x: x, bp: bp, fr: fr, regs: regs, vecs: x.strip.v, forms: x.strip.forms[:fd.nvec]}
	for i := range s.forms {
		s.forms[i].lanes = true // compute clears it for the affine vectors it writes
	}
	v, step := int64(regs[fd.vReg].bits), int64(regs[fd.stepValReg].bits)
	body := bp.code[fd.headPC+1 : fd.endPC-1]
	left := trips
	for left >= stripMin {
		s.n = int(min(left, stripLen))
		s.forms[0] = affine{base: v, step: step}
		charge, ok := s.compute(body, int(fd.headPC)+1)
		if !ok {
			break
		}
		s.commit(body)
		x.rank.Compute(charge * netsim.Time(s.n))
		if x.trace != nil {
			for _, ins := range body {
				if ins.op == bCharge {
					x.trace.Charge(&x.prog.vecs[ins.a], int64(s.n))
				}
			}
		}
		v += int64(s.n) * step
		left -= int64(s.n)
	}
	regs[fd.vReg].bits = uint64(v)
	regs[fd.tripsReg].bits = uint64(left)
	return trips - left
}

// compute runs the body over the strip's lanes with no side effect beyond
// lane vectors and the body's invariant registers, returning the body's
// per-iteration charge. It reports false as soon as any lane would fault.
func (s *stripRun) compute(body []bins, pc0 int) (charge netsim.Time, ok bool) {
	lane, aff, tab := s.bp.lane, s.bp.aff, s.x.tab
	for i, ins := range body {
		switch ins.op {
		case bCharge:
			charge += tab[ins.a]
			continue
		case bStoreS:
			continue
		case bStoreA, bStoreU1, bStoreU2, bStoreU3:
			if !s.offsets(s.vec(ins.c), ins) {
				return 0, false
			}
			continue
		}
		dl := lane[ins.a]
		if dl < 0 {
			// Invariant: one scalar execution serves every lane. A load
			// from a private cell reads the register stored this iteration
			// (the cell itself is only written at commit).
			if ins.op == bLoadS && ins.c >= 0 {
				s.regs[ins.a] = s.regs[ins.c]
			} else if s.bp.bexec(s.x, s.fr, s.regs, pc0+i, pc0+i+1) != nil {
				return 0, false
			}
			continue
		}
		if aff[ins.a] {
			s.forms[dl] = s.affineOf(ins)
			continue
		}
		d := s.vec(dl)
		switch ins.op {
		case bLoadS:
			copy(d, s.lanes(lane[ins.c]))
		case bNegI:
			for l, v := range s.lanes(lane[ins.b]) {
				d[l] = -v
			}
		case bLoadA, bLoadU1, bLoadU2, bLoadU3:
			if !s.offsets(d, ins) {
				return 0, false
			}
			aslot, _ := s.bp.access(ins)
			a := s.fr.arr[aslot]
			a.NoteLoads(d)
			data := a.Ints()
			for l, off := range d {
				d[l] = data[off]
			}
		default:
			if !s.arith(ins, d) {
				return 0, false
			}
		}
	}
	return charge, true
}

// commit makes the strip's deferred writes: array stores in lane order and
// the last lane's value of every private scalar.
func (s *stripRun) commit(body []bins) {
	lane := s.bp.lane
	for _, ins := range body {
		switch ins.op {
		case bStoreS:
			v := int64(s.regs[ins.b].bits)
			if l := lane[ins.b]; l >= 0 {
				v = s.lanes(l)[s.n-1]
			}
			p := s.fr.scal[ins.a]
			*p = interp.CoerceStore(*p, interp.IntVal(v))
		case bStoreA, bStoreU1, bStoreU2, bStoreU3:
			aslot, _ := s.bp.access(ins)
			a := s.fr.arr[aslot]
			offs := s.vec(ins.c)
			a.NoteStores(offs)
			data := a.Ints()
			if l := lane[ins.b]; l >= 0 {
				vals := s.lanes(l)
				for l, off := range offs {
					data[off] = vals[l]
				}
			} else {
				v := int64(s.regs[ins.b].bits)
				for _, off := range offs {
					data[off] = v
				}
			}
		}
	}
}

// offsets fills off with each lane's linear element offset for the array
// access ins, under the walker's bounds rules (Array.Idx*): false when the
// reference's rank is not the array's or any lane's subscript leaves its
// dimension. BCE-proven accesses are checked too; they never fail.
func (s *stripRun) offsets(off []int64, ins bins) bool {
	aslot, subs := s.bp.access(ins)
	a := s.fr.arr[aslot]
	if len(subs) != len(a.Dims) {
		return false
	}
	// Subscripts whose lanes run straight from the first to the last are
	// checked at those two and summed into one affine offset; the rest lane
	// by lane.
	last := int64(len(off) - 1)
	var base, step int64
	for d, r := range subs {
		f, ok := s.span(r)
		if !ok {
			continue
		}
		lo, hi := f.base, f.base+last*f.step
		if lo > hi {
			lo, hi = hi, lo
		}
		dim, stride := a.Dims[d], a.Stride(d)
		if lo < dim.Lo || hi > dim.Hi {
			return false
		}
		base += (f.base - dim.Lo) * stride
		step += f.step * stride
	}
	for l := range off {
		off[l] = base + int64(l)*step
	}
	for d, r := range subs {
		if _, ok := s.span(r); ok {
			continue
		}
		x := s.lanes(s.bp.lane[r])[:len(off)]
		lo, hi, stride := a.Dims[d].Lo, a.Dims[d].Hi, a.Stride(d)
		for l := range off {
			v := x[l]
			if v < lo || v > hi {
				return false
			}
			off[l] += (v - lo) * stride
		}
	}
	return true
}

func fill(d []int64, v int64) {
	for l := range d {
		d[l] = v
	}
}

// arith runs one two-operand integer instruction over the strip: d = x op
// y per lane, each operand a lane vector or a scalar register — or, for a
// mod or / of an affine vector by a non-zero scalar, by affineDivMod when
// its guards pass. It reports false when any lane's divisor is zero.
func (s *stripRun) arith(ins bins, d []int64) bool {
	var x, y []int64
	var xs, ys int64
	div := ins.op == bDivI || ins.op == bModI
	if l := s.bp.lane[ins.c]; l >= 0 {
		y = s.lanes(l)[:len(d)]
	} else {
		ys = int64(s.regs[ins.c].bits)
	}
	if l := s.bp.lane[ins.b]; l < 0 {
		xs = int64(s.regs[ins.b].bits)
	} else if f := s.forms[l]; div && y == nil && s.bp.aff[ins.b] && affineDivMod(d, f.base, f.step, ys, ins.op == bModI) {
		s.x.recurLanes += int64(len(d))
		return true
	} else {
		x = s.lanes(l)[:len(d)]
	}
	if div {
		s.x.idivLanes += int64(len(d))
	}
	// Two loop shapes per operator, vector∘vector and vector∘scalar: a
	// scalar left operand swaps over when the operator commutes and is
	// broadcast into d otherwise, as is the scalar operand of the rare ones.
	switch {
	case x == nil && (ins.op == bAddI || ins.op == bMulI):
		x, y, ys = y, nil, xs
	case x == nil:
		fill(d, xs)
		x = d
	case y == nil && (ins.op == bMinI || ins.op == bMaxI || ins.op == bPowI):
		fill(d, ys)
		y = d
	}
	switch ins.op {
	case bAddI:
		if y == nil {
			for l := range d {
				d[l] = x[l] + ys
			}
		} else {
			for l := range d {
				d[l] = x[l] + y[l]
			}
		}
	case bSubI:
		if y == nil {
			for l := range d {
				d[l] = x[l] - ys
			}
		} else {
			for l := range d {
				d[l] = x[l] - y[l]
			}
		}
	case bMulI:
		if y == nil {
			for l := range d {
				d[l] = x[l] * ys
			}
		} else {
			for l := range d {
				d[l] = x[l] * y[l]
			}
		}
	case bDivI:
		if y == nil {
			if ys == 0 {
				return false
			}
			for l := range d {
				d[l] = x[l] / ys
			}
		} else {
			for l := range d {
				if y[l] == 0 {
					return false
				}
				d[l] = x[l] / y[l]
			}
		}
	case bModI:
		if y == nil {
			if ys == 0 {
				return false
			}
			for l := range d {
				d[l] = x[l] % ys
			}
		} else {
			for l := range d {
				if y[l] == 0 {
					return false
				}
				d[l] = x[l] % y[l]
			}
		}
	case bMinI:
		for l := range d {
			d[l] = min(x[l], y[l])
		}
	case bMaxI:
		for l := range d {
			d[l] = max(x[l], y[l])
		}
	case bPowI:
		for l := range d {
			d[l] = interp.PowInt(x[l], y[l])
		}
	}
	return true
}

// affineDivMod writes d[l] = (base + l·step) / m, or % m when mod, with Go's
// (Fortran's) truncated division, by one division of base and one of step
// and the remainder recurrence — if it can: it reports false, writing
// nothing, unless len(d) ≤ stripLen, 0 < m ≤ 2⁶², |step| ≤ 2⁵⁶,
// |base| ≤ 2⁶¹ and the first and last lanes have one sign. Those bounds keep
// every lane and the lane after the last inside ±2⁶³ and r + rs < 2m ≤ 2⁶³,
// so nothing below wraps; a strip of non-positive lanes is divided as its
// negation, whose truncated quotient and remainder are the negated ones.
func affineDivMod(d []int64, base, step, m int64, mod bool) bool {
	if len(d) == 0 || len(d) > stripLen || m <= 0 || m > maxDivisor || !straight(base, step) {
		return false
	}
	last := base + int64(len(d)-1)*step
	neg := base < 0 || last < 0
	if neg {
		if base > 0 || last > 0 {
			return false
		}
		base, step = -base, -step
	}
	q, r := base/m, base%m
	qs, rs := step/m, step%m
	if rs < 0 { // floored: 0 ≤ rs < m
		qs, rs = qs-1, rs+m
	}
	if mod {
		for l := range d {
			d[l] = r
			if r += rs; r >= m {
				r -= m
			}
		}
	} else {
		for l := range d {
			d[l] = q
			q += qs
			if r += rs; r >= m {
				r -= m
				q++
			}
		}
	}
	if neg {
		for l := range d {
			d[l] = -d[l]
		}
	}
	return true
}
