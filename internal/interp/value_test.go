package interp

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/ftn"
)

// same compares two values by kind and content (a character value's pointer
// is an address, not content).
func same(a, b Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S() == b.S()
}

// TestValueLayout pins the compact Value: its size, its zero value, exact
// real bits, and that every conversion reads each kind as the five-field
// struct it replaced did (a logical's and a character's integer and real
// readings are 0, whatever the payload word holds).
func TestValueLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Value{}); sz > 24 {
		t.Errorf("Value is %d bytes, want <= 24", sz)
	}
	if z := (Value{}); z.Kind != KInt || z.I != 0 || z.Format() != "0" || !same(z, IntVal(0)) {
		t.Errorf("zero Value = %+v, want integer 0", z)
	}

	for _, bits := range []uint64{
		math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		0x7ff8000000000abc, // a NaN with a payload
		0xfff0000000000001, // a signalling NaN
		math.Float64bits(1.5),
	} {
		v := RealVal(math.Float64frombits(bits))
		if got := math.Float64bits(v.R()); got != bits {
			t.Errorf("real %#x round-trips as %#x", bits, got)
		}
		if got := math.Float64bits(v.AsReal()); got != bits {
			t.Errorf("AsReal of %#x = %#x", bits, got)
		}
	}

	conversions := []struct {
		v      Value
		kind   Kind
		asInt  int64
		asReal float64
		r      float64
		b      bool
		s      string
		format string
	}{
		{IntVal(-7), KInt, -7, -7, 0, false, "", "-7"},
		{IntVal(1), KInt, 1, 1, 0, false, "", "1"},
		{RealVal(2.75), KReal, 2, 2.75, 2.75, false, "", "2.75"},
		{RealVal(-2.75), KReal, -2, -2.75, -2.75, false, "", "-2.75"},
		{RealVal(1e10), KReal, 10000000000, 1e10, 1e10, false, "", "1e+10"},
		{BoolVal(true), KBool, 0, 0, 0, true, "", "T"},
		{BoolVal(false), KBool, 0, 0, 0, false, "", "F"},
		{StrVal("hi there"), KStr, 0, 0, 0, false, "hi there", "hi there"},
		{StrVal(""), KStr, 0, 0, 0, false, "", ""},
		{Value{Kind: KStr}, KStr, 0, 0, 0, false, "", ""},
	}
	for _, c := range conversions {
		v := c.v
		if v.Kind != c.kind || v.AsInt() != c.asInt || v.AsReal() != c.asReal ||
			v.R() != c.r || v.B() != c.b || v.S() != c.s || v.Format() != c.format {
			t.Errorf("%s %q: AsInt %d AsReal %g R %g B %v S %q Format %q, want %d %g %g %v %q %q",
				v.Kind, v.Format(), v.AsInt(), v.AsReal(), v.R(), v.B(), v.S(), v.Format(),
				c.asInt, c.asReal, c.r, c.b, c.s, c.format)
		}
	}
	if got := FormatPrintLine([]Value{IntVal(3), RealVal(0.5), BoolVal(true), StrVal("x y")}); got != "3 0.5 T x y" {
		t.Errorf("FormatPrintLine = %q", got)
	}
}

func TestCoerceTables(t *testing.T) {
	str := StrVal("s")
	store := []struct{ old, v, want Value }{
		{IntVal(9), IntVal(4), IntVal(4)},
		{IntVal(9), RealVal(2.9), IntVal(2)},
		{IntVal(9), RealVal(-2.9), IntVal(-2)},
		{IntVal(9), BoolVal(true), IntVal(0)},
		{IntVal(9), str, IntVal(0)},
		{RealVal(9), IntVal(3), RealVal(3)},
		{RealVal(9), RealVal(math.Copysign(0, -1)), RealVal(math.Copysign(0, -1))},
		{RealVal(9), BoolVal(true), RealVal(0)},
		{RealVal(9), str, RealVal(0)},
		{BoolVal(false), BoolVal(true), BoolVal(true)},
		{BoolVal(true), IntVal(0), BoolVal(false)},
		{BoolVal(false), IntVal(5), BoolVal(true)},
		{BoolVal(false), RealVal(0.5), BoolVal(false)},
		{BoolVal(false), RealVal(2.5), BoolVal(true)},
		{BoolVal(true), str, BoolVal(false)},
		{StrVal("old"), str, str},
		// Nothing converts into a character cell: the value goes in as it is.
		{StrVal("old"), IntVal(3), IntVal(3)},
		{StrVal("old"), BoolVal(true), BoolVal(true)},
	}
	for _, c := range store {
		if got := CoerceStore(c.old, c.v); !same(got, c.want) {
			t.Errorf("CoerceStore(%s cell, %s %s) = %s %s, want %s %s", c.old.Kind,
				c.v.Kind, c.v.Format(), got.Kind, got.Format(), c.want.Kind, c.want.Format())
		}
	}

	decl := []struct {
		base    ftn.BaseType
		v, want Value
	}{
		{ftn.TInteger, RealVal(3.9), IntVal(3)},
		{ftn.TInteger, IntVal(-3), IntVal(-3)},
		{ftn.TInteger, BoolVal(true), IntVal(0)},
		{ftn.TReal, IntVal(2), RealVal(2)},
		{ftn.TDouble, IntVal(2), RealVal(2)},
		{ftn.TDouble, RealVal(0.1), RealVal(0.1)},
		{ftn.TLogical, BoolVal(true), BoolVal(true)},
		{ftn.TLogical, IntVal(1), IntVal(1)},
		{ftn.TCharacter, str, str},
		{ftn.TCharacter, IntVal(1), IntVal(1)},
	}
	for _, c := range decl {
		if got := CoerceDecl(c.base, c.v); !same(got, c.want) {
			t.Errorf("CoerceDecl(%s, %s %s) = %s %s, want %s %s", c.base,
				c.v.Kind, c.v.Format(), got.Kind, got.Format(), c.want.Kind, c.want.Format())
		}
	}
	for k, want := range map[Kind]Value{KInt: IntVal(0), KReal: RealVal(0), KBool: BoolVal(false), KStr: StrVal("")} {
		if got := ZeroOf(k); !same(got, want) {
			t.Errorf("ZeroOf(%s) = %s %q", k, got.Kind, got.Format())
		}
	}
}

// TestPowIntBySquaring: integer ** by squaring is e repeated
// multiplications in two's complement, for every e in [0, 300] over the
// edge bases and random ones, and 0 for a negative exponent.
func TestPowIntBySquaring(t *testing.T) {
	r := rand.New(rand.NewSource(2006))
	bases := []int64{0, 1, -1, 2, -2, 3, -3, math.MinInt64, math.MaxInt64}
	for i := 0; i < 8; i++ {
		bases = append(bases, int64(r.Uint64()))
	}
	for _, b := range bases {
		want := int64(1)
		for e := int64(0); e <= 300; e++ {
			if got := PowInt(b, e); got != want {
				t.Fatalf("PowInt(%d, %d) = %d, want %d", b, e, got, want)
			}
			v, err := numericBinop("**", IntVal(b), IntVal(e))
			if err != nil || v != IntVal(want) {
				t.Fatalf("%d ** %d = %v (%v), want %d", b, e, v, err, want)
			}
			want *= b
		}
		for _, e := range []int64{-1, -2, math.MinInt64} {
			if got := PowInt(b, e); got != 0 {
				t.Fatalf("PowInt(%d, %d) = %d, want 0", b, e, got)
			}
		}
	}
}
