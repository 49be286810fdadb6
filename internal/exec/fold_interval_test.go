package exec

import (
	"math"
	"math/big"
	"testing"
)

// foldValue decodes one fuzzed value, weighted by sel's low three bits to the
// edges the fold's interval arithmetic guards: MinInt64, MaxInt64, 0, ±1, a
// small value (so that intervals straddle zero often) or the raw value.
func foldValue(sel uint16, raw int64) int64 {
	switch sel & 7 {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return 0
	case 3:
		return 1
	case 4:
		return -1
	case 5:
		return raw % 8
	case 6:
		return raw >> 32
	}
	return raw
}

// foldIval is the interval spanned by two values.
func foldIval(x, y int64) ival { return ival{min(x, y), max(x, y)} }

// midpoint is a point of v between its ends, computed without overflow.
func midpoint(v ival) int64 { return v.lo + int64((uint64(v.hi)-uint64(v.lo))/2) }

var (
	bigMin = big.NewInt(math.MinInt64)
	bigMax = big.NewInt(math.MaxInt64)
)

// fits reports whether the exact value x is an int64.
func fits(x *big.Int) bool { return x.Cmp(bigMin) >= 0 && x.Cmp(bigMax) <= 0 }

// exact applies op to x and y in math/big: +, ·, truncated / or truncated %.
func exact(op byte, x, y int64) *big.Int {
	bx, by := big.NewInt(x), big.NewInt(y)
	switch op {
	case '+':
		return bx.Add(bx, by)
	case '*':
		return bx.Mul(bx, by)
	case '/':
		return bx.Quo(bx, by)
	}
	return bx.Rem(bx, by)
}

// points are the corners of a × b and a sampled interior point.
func points(a, b ival, sx, sy int64) [][2]int64 {
	ps := [][2]int64{{a.lo, b.lo}, {a.lo, b.hi}, {a.hi, b.lo}, {a.hi, b.hi}}
	in := func(v ival, s int64) int64 {
		if v.lo <= s && s <= v.hi {
			return s
		}
		return midpoint(v)
	}
	return append(ps, [2]int64{in(a, sx), in(b, sy)}, [2]int64{midpoint(a), in(b, sy)})
}

// holds reports whether r holds the exact value x: no wrap and no point
// outside the answer.
func holds(r ival, x *big.Int) bool {
	return fits(x) && r.lo <= x.Int64() && x.Int64() <= r.hi
}

// FuzzFoldInterval holds the fold's interval arithmetic (addI, mul64, mulI,
// divI, modI, doRange in slice.go) to math/big. Soundness: an answer that is
// ok holds the exact value at every corner and at sampled interior points.
// Refusal: an answer that is not ok has a reason — a divisor interval that
// holds 0 (or, for modI, the divisor MinInt64, whose magnitude is no int64),
// or an exact sum, product or quotient over the box that overflows. The
// committed seeds (testdata/fuzz/FuzzFoldInterval) hold each helper's edges.
func FuzzFoldInterval(f *testing.F) {
	f.Fuzz(func(t *testing.T, helper uint8, sel uint16, v0, v1, v2, v3, sx, sy int64) {
		x0, x1 := foldValue(sel, v0), foldValue(sel>>3, v1)
		y0, y1 := foldValue(sel>>6, v2), foldValue(sel>>9, v3)
		a, b := foldIval(x0, x1), foldIval(y0, y1)
		switch helper % 6 {
		case 0:
			checkFold(t, "addI", '+', a, b, sx, sy, addI)
		case 1:
			p, ok := mul64(x0, y0)
			if e := exact('*', x0, y0); ok != fits(e) || ok && p != e.Int64() {
				t.Fatalf("mul64(%d, %d) = %d, %v; exact %s", x0, y0, p, ok, e)
			}
		case 2:
			checkFold(t, "mulI", '*', a, b, sx, sy, mulI)
		case 3:
			checkFold(t, "divI", '/', a, b, sx, sy, divI)
		case 4:
			checkFold(t, "modI", '%', a, b, sx, sy, modI)
		case 5:
			checkDoRange(t, x0, y0, y1, sx)
		}
	})
}

// checkFold holds one interval helper to op in math/big on a × b.
func checkFold(t *testing.T, name string, op byte, a, b ival, sx, sy int64, fn func(a, b ival) (ival, bool)) {
	t.Helper()
	r, ok := fn(a, b)
	divides := op == '/' || op == '%'
	if !ok {
		if divides && (b.lo <= 0 && b.hi >= 0 || op == '%' && b.lo == math.MinInt64) {
			return
		}
		// Only corners can leave the int64 range: a sum or product is
		// extreme at them, and a quotient leaves it only as MinInt64 / −1.
		for _, p := range points(a, b, sx, sy) {
			if !fits(exact(op, p[0], p[1])) {
				return
			}
		}
		if op == '/' && a.lo == math.MinInt64 && b.lo <= -1 && b.hi >= -1 && !fits(exact('/', a.lo, -1)) {
			return
		}
		t.Fatalf("%s(%v, %v) refused, but no divisor is 0 and nothing overflows", name, a, b)
	}
	if divides && b.lo <= 0 && b.hi >= 0 {
		t.Fatalf("%s(%v, %v) = %v with a divisor of 0", name, a, b, r)
	}
	ps := points(a, b, sx, sy)
	if divides {
		// The quotient and remainder are not monotone in the divisor
		// across ±1; try the divisors of smallest magnitude too.
		for _, y := range []int64{1, -1, 2, -2} {
			if b.lo <= y && y <= b.hi {
				ps = append(ps, [2]int64{a.lo, y}, [2]int64{a.hi, y}, [2]int64{midpoint(a), y})
			}
		}
	}
	for _, p := range ps {
		if e := exact(op, p[0], p[1]); !holds(r, e) {
			t.Fatalf("%s(%v, %v) = %v, but %d %c %d = %s", name, a, b, r, p[0], op, p[1], e)
		}
	}
}

// checkDoRange holds doRange(lo, step, trips) to the DO variable's exact
// values lo + i·step at the first, last and a sampled trip.
func checkDoRange(t *testing.T, lo, step, trips, si int64) {
	t.Helper()
	if trips < 1 {
		trips = 1 - trips%1024
	}
	r, ok := doRange(lo, step, trips)
	value := func(i int64) (*big.Int, *big.Int) {
		span := exact('*', i, step)
		return span, new(big.Int).Add(span, big.NewInt(lo))
	}
	if !ok {
		if span, last := value(trips - 1); !fits(span) || !fits(last) {
			return
		}
		t.Fatalf("doRange(%d, %d, %d) refused, but nothing overflows", lo, step, trips)
	}
	i := si
	if i < 0 || i >= trips {
		i = midpoint(ival{0, trips - 1})
	}
	for _, i := range []int64{0, trips - 1, i} {
		if _, v := value(i); !holds(r, v) {
			t.Fatalf("doRange(%d, %d, %d) = %v, but trip %d is at %s", lo, step, trips, r, i, v)
		}
	}
}
