package analysis

import (
	"repro/internal/dep"
	"repro/internal/ftn"
)

// The integer evaluator for the arithmetic subset that appears in
// declarations, loop bounds and subscripts: + - * / ** mod min max abs.
// An expression is resolved once — names to slots of a scope, the tree to
// postfix code — and run any number of times against a flat environment, so
// the §3.4 slab check pays no name lookup per element it evaluates.
// (*env).run is the only operator table; EvalInt is resolve-and-run-once.

type opcode uint8

const (
	opFail opcode = iota // outside the subset: the expression never evaluates
	opLit                // push k
	opVar                // push slot k's value; the expression fails when it is undefined
	opNeg
	opAbs
	opAdd
	opSub
	opMul
	opDiv
	opPow
	opMod
	opMin
	opMax
)

type instr struct {
	op opcode
	k  int64
}

// code is one resolved expression in postfix order.
type code []instr

// scope numbers the names a group of expressions mentions.
type scope struct {
	names []string // slot -> name
	slots map[string]int
}

// slotOf returns name's slot, allocating one on first sight.
func (sc *scope) slotOf(name string) int {
	if s, ok := sc.slots[name]; ok {
		return s
	}
	if sc.slots == nil {
		sc.slots = map[string]int{}
	}
	s := len(sc.names)
	sc.slots[name] = s
	sc.names = append(sc.names, name)
	return s
}

// resolve lowers e to postfix code over sc's slots.
func (sc *scope) resolve(e ftn.Expr) code { return sc.lower(nil, e) }

func (sc *scope) lower(c code, e ftn.Expr) code {
	switch e := e.(type) {
	case *ftn.IntLit:
		return append(c, instr{opLit, e.Value})
	case *ftn.Ident:
		return append(c, instr{opVar, int64(sc.slotOf(e.Name))})
	case *ftn.Unary:
		c = sc.lower(c, e.X)
		switch e.Op {
		case "-":
			return append(c, instr{op: opNeg})
		case "+":
			return c
		}
	case *ftn.Binary:
		ops := map[string]opcode{"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "**": opPow}
		if op := ops[e.Op]; op != opFail {
			return append(sc.lower(sc.lower(c, e.X), e.Y), instr{op: op})
		}
	case *ftn.Ref:
		for _, a := range e.Args {
			c = sc.lower(c, a)
		}
		switch n := len(e.Args); {
		case e.Name == "mod" && n == 2:
			return append(c, instr{op: opMod})
		case e.Name == "abs" && n == 1:
			return append(c, instr{op: opAbs})
		case (e.Name == "min" || e.Name == "max") && n >= 1:
			// The arguments are all on the stack; n-1 folds reduce them.
			op := opMin
			if e.Name == "max" {
				op = opMax
			}
			for i := 1; i < n; i++ {
				c = append(c, instr{op: op})
			}
			return c
		}
	}
	return append(c, instr{op: opFail})
}

// env is the flat environment code runs against: a value and a defined bit
// per slot of the scope it was made from.
type env struct {
	val []int64
	def []bool
}

// newEnv makes the environment of everything sc has numbered so far (resolve
// first, then make the environment), with the named constants defined.
func (sc *scope) newEnv(consts map[string]int64) *env {
	en := &env{val: make([]int64, len(sc.names)), def: make([]bool, len(sc.names))}
	for s, name := range sc.names {
		if v, ok := consts[name]; ok {
			en.set(s, v)
		}
	}
	return en
}

func (en *env) set(slot int, v int64) { en.val[slot], en.def[slot] = v, true }
func (en *env) unset(slot int)        { en.def[slot] = false }

// run evaluates c. ok is false when c reads an undefined slot, divides by
// zero, raises to a negative power, overflows a power, or is outside the
// subset.
func (en *env) run(c code) (int64, bool) {
	var buf [16]int64 // operand stack; deeper expressions spill to the heap
	st := buf[:0]
	for _, in := range c {
		switch in.op {
		case opLit:
			st = append(st, in.k)
			continue
		case opVar:
			if !en.def[in.k] {
				return 0, false
			}
			st = append(st, en.val[in.k])
			continue
		case opNeg, opAbs:
			if x := &st[len(st)-1]; in.op == opNeg || *x < 0 {
				*x = -*x
			}
			continue
		case opFail:
			return 0, false
		}
		y := st[len(st)-1]
		st = st[:len(st)-1]
		x := &st[len(st)-1]
		switch in.op {
		case opAdd:
			*x += y
		case opSub:
			*x -= y
		case opMul:
			*x *= y
		case opDiv:
			if y == 0 {
				return 0, false
			}
			*x /= y // Fortran integer division truncates toward 0
		case opMod:
			if y == 0 {
				return 0, false
			}
			*x %= y
		case opMin:
			if y < *x {
				*x = y
			}
		case opMax:
			if y > *x {
				*x = y
			}
		case opPow:
			p, ok := dep.IntPow(*x, y)
			if !ok {
				return 0, false
			}
			*x = p
		}
	}
	return st[0], true
}

// EvalInt evaluates an integer-valued expression once under the
// named-constant table env: resolve, then run.
func EvalInt(e ftn.Expr, env map[string]int64) (int64, bool) {
	var sc scope
	c := sc.resolve(e)
	return sc.newEnv(env).run(c)
}
