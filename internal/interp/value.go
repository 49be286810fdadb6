// Package interp executes programs in the ftn subset on simulated MPI
// ranks: every rank runs the same program against the netsim virtual
// cluster, computation advances virtual time through a configurable cost
// model, and the MPI_* calls bind to the mpi runtime. It is the evaluation
// harness of the reproduction: original and transformed programs run under
// identical conditions and their outputs and final array states can be
// compared exactly.
//
// The engine is a plain tree-walker — one switch over statements, one over
// expressions — kept deliberately simple because it is the oracle the faster
// tiers in internal/exec are proven against. Two things keep it affordable
// as an oracle without changing that shape:
//
//   - Value is a payload word, a one-byte kind and a pointer to character
//     data (24 bytes). Integers are the word itself, reals their IEEE bits,
//     logicals 0/1, so every evalExpr returns in registers and the kinds the
//     corpus computes with never touch the pointer.
//   - Names are resolved once, by Load. The parsed file belongs to the
//     Program alone, so Load numbers each unit's names and writes the slot on
//     every Ident, Ref and DoStmt; a frame is one []binding indexed by slot.
//     Declared names are bound when the frame is built, an undeclared one on
//     first touch (implicit typing) or not at all (implicit none), in the
//     check order consts → scalars → MPI constants → arrays → implicit.
//     Resolution has to happen at Load and not lazily on first evaluation:
//     every rank of a run walks the same tree from its own goroutine, so the
//     tree must be read-only by the time the first rank starts.
package interp

import (
	"fmt"
	"math"
	"strings"
)

// Kind is a runtime value kind.
type Kind uint8

// Value kinds.
const (
	KInt Kind = iota
	KReal
	KBool
	KStr
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KInt:
		return "integer"
	case KReal:
		return "real"
	case KBool:
		return "logical"
	case KStr:
		return "character"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Value is a compact tagged scalar: one payload word, the character data (if
// any) behind a pointer, and a one-byte kind — 24 bytes, so a Value travels
// in registers through every evalExpr return. The zero Value is integer 0.
type Value struct {
	// I is the payload word: the integer itself, a real's IEEE-754 bits, a
	// logical's 0/1. Read it directly only under Kind == KInt; R, B and S
	// (and AsInt/AsReal) decode the other kinds.
	I    int64
	s    *string
	Kind Kind
}

// IntVal builds an integer value.
func IntVal(i int64) Value { return Value{I: i} }

// RealVal builds a real value.
func RealVal(r float64) Value { return Value{Kind: KReal, I: int64(math.Float64bits(r))} }

// BoolVal builds a logical value.
func BoolVal(b bool) Value {
	if b {
		return Value{Kind: KBool, I: 1}
	}
	return Value{Kind: KBool}
}

// StrVal builds a character value.
func StrVal(s string) Value { return Value{Kind: KStr, s: &s} }

// R is the real a KReal value holds (its exact bits), 0 for any other kind.
func (v Value) R() float64 {
	if v.Kind != KReal {
		return 0
	}
	return math.Float64frombits(uint64(v.I))
}

// B is the logical a KBool value holds, false for any other kind.
func (v Value) B() bool { return v.Kind == KBool && v.I != 0 }

// S is the text a KStr value holds, "" for any other kind.
func (v Value) S() string {
	if v.Kind != KStr || v.s == nil {
		return ""
	}
	return *v.s
}

// AsReal converts to float64 (integer widens; logical and character read 0).
func (v Value) AsReal() float64 {
	if v.Kind == KInt {
		return float64(v.I)
	}
	return v.R()
}

// AsInt converts to int64 (real truncates toward zero, as Fortran INT does;
// logical and character read 0).
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KInt:
		return v.I
	case KReal:
		return int64(v.R())
	}
	return 0
}

// Format renders the value the way our PRINT statement does.
func (v Value) Format() string {
	switch v.Kind {
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KReal:
		return trimFloat(v.R())
	case KBool:
		if v.B() {
			return "T"
		}
		return "F"
	case KStr:
		return v.S()
	}
	return "?"
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%.6g", f)
	return s
}

// numericBinop applies an arithmetic operator with Fortran promotion rules.
func numericBinop(op string, a, b Value) (Value, error) {
	if a.Kind == KInt && b.Kind == KInt {
		switch op {
		case "+":
			return IntVal(a.I + b.I), nil
		case "-":
			return IntVal(a.I - b.I), nil
		case "*":
			return IntVal(a.I * b.I), nil
		case "/":
			if b.I == 0 {
				return Value{}, fmt.Errorf("integer division by zero")
			}
			return IntVal(a.I / b.I), nil
		case "**":
			return IntVal(PowInt(a.I, b.I)), nil
		}
		return Value{}, fmt.Errorf("bad integer operator %q", op)
	}
	x, y := a.AsReal(), b.AsReal()
	switch op {
	case "+":
		return RealVal(x + y), nil
	case "-":
		return RealVal(x - y), nil
	case "*":
		return RealVal(x * y), nil
	case "/":
		return RealVal(x / y), nil
	case "**":
		return RealVal(powFloat(x, y)), nil
	}
	return Value{}, fmt.Errorf("bad real operator %q", op)
}

func powFloat(x, y float64) float64 { return math.Pow(x, y) }

// PowInt is integer ** (exported for the compiled engine): zero for a
// negative exponent (Fortran truncation), else base**e in two's complement,
// by squaring — O(log e), and equal to e repeated multiplications because
// multiplication modulo 2⁶⁴ is associative.
func PowInt(base, e int64) int64 {
	if e < 0 {
		return 0
	}
	r := int64(1)
	for ; e > 0; e >>= 1 {
		if e&1 != 0 {
			r *= base
		}
		base *= base
	}
	return r
}

// compare applies a relational operator.
func compare(op string, a, b Value) (Value, error) {
	if a.Kind == KStr && b.Kind == KStr {
		switch op {
		case "==":
			return BoolVal(a.S() == b.S()), nil
		case "/=":
			return BoolVal(a.S() != b.S()), nil
		case "<":
			return BoolVal(a.S() < b.S()), nil
		case "<=":
			return BoolVal(a.S() <= b.S()), nil
		case ">":
			return BoolVal(a.S() > b.S()), nil
		case ">=":
			return BoolVal(a.S() >= b.S()), nil
		}
	}
	if a.Kind == KInt && b.Kind == KInt {
		switch op {
		case "==":
			return BoolVal(a.I == b.I), nil
		case "/=":
			return BoolVal(a.I != b.I), nil
		case "<":
			return BoolVal(a.I < b.I), nil
		case "<=":
			return BoolVal(a.I <= b.I), nil
		case ">":
			return BoolVal(a.I > b.I), nil
		case ">=":
			return BoolVal(a.I >= b.I), nil
		}
	}
	x, y := a.AsReal(), b.AsReal()
	switch op {
	case "==":
		return BoolVal(x == y), nil
	case "/=":
		return BoolVal(x != y), nil
	case "<":
		return BoolVal(x < y), nil
	case "<=":
		return BoolVal(x <= y), nil
	case ">":
		return BoolVal(x > y), nil
	case ">=":
		return BoolVal(x >= y), nil
	}
	return Value{}, fmt.Errorf("bad comparison %q", op)
}

// formatPrintLine renders PRINT arguments like a Fortran list-directed
// write (single spaces between items).
func formatPrintLine(vals []Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.Format()
	}
	return strings.Join(parts, " ")
}

// FormatPrintLine is the exported PRINT formatter, shared with the compiled
// engine so both produce byte-identical output lines.
func FormatPrintLine(vals []Value) string { return formatPrintLine(vals) }

// NumericBinop applies an arithmetic operator with Fortran promotion rules
// (the exported form the compiled engine lowers Binary nodes onto).
func NumericBinop(op string, a, b Value) (Value, error) { return numericBinop(op, a, b) }

// Compare applies a relational operator (exported for the compiled engine).
func Compare(op string, a, b Value) (Value, error) { return compare(op, a, b) }
