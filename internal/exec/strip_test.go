package exec

import (
	"math"
	"math/rand"
	"testing"
)

// checkAffineDivMod runs affineDivMod both ways on one case and compares it
// with what the per-lane path computes — the dividend's lanes in wrapping
// arithmetic, then one Go division each — whenever it takes the case, and
// requires it to leave d untouched when it declines. It returns whether the
// case was taken.
func checkAffineDivMod(t *testing.T, base, step, m int64, n int) bool {
	t.Helper()
	var d [stripLen + 8]int64
	taken := false
	for _, mod := range []bool{false, true} {
		for l := range d {
			d[l] = math.MinInt64 + 7
		}
		ok := affineDivMod(d[:n], base, step, m, mod)
		if ok != inAffineGuards(base, step, m, n) {
			t.Fatalf("affineDivMod(base %d, step %d, m %d, n %d) took the case: %v, the guards say %v", base, step, m, n, ok, !ok)
		}
		for l := 0; l < n; l++ {
			want := d[l]
			if ok {
				x := base + int64(l)*step
				want = x / m
				if mod {
					want = x % m
				}
			} else if want != math.MinInt64+7 {
				t.Fatalf("declined (base %d, step %d, m %d, n %d) but wrote lane %d", base, step, m, n, l)
			}
			if d[l] != want {
				t.Fatalf("base %d, step %d, m %d, n %d, mod %v: lane %d is %d, want %d", base, step, m, n, mod, l, d[l], want)
			}
		}
		taken = ok
	}
	return taken
}

// inAffineGuards restates the recurrence's guards independently.
func inAffineGuards(base, step, m int64, n int) bool {
	if n < 1 || n > stripLen || m < 1 || m > 1<<62 || abs64(step) > 1<<56 || abs64(base) > 1<<61 {
		return false
	}
	last := base + int64(n-1)*step
	return (base >= 0 && last >= 0) || (base <= 0 && last <= 0)
}

func abs64(v int64) uint64 {
	if v < 0 {
		return uint64(-v) // MinInt64 stays 1<<63 as a uint64
	}
	return uint64(v)
}

// affineEdges are values at and around the guards' edges, and the ones
// beyond any guard.
var affineEdges = []int64{
	0, 1, -1, 2, -2, 7, -7, 13, 63, 64, -64,
	1<<56 - 1, 1 << 56, 1<<56 + 1, -(1 << 56), -(1<<56 + 1),
	1<<61 - 1, 1 << 61, 1<<61 + 1, -(1 << 61), -(1<<61 + 1),
	1<<62 - 1, 1 << 62, 1<<62 + 1, -(1 << 62),
	math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
}

// TestAffineDivModProperty: the remainder recurrence equals / and % lane by
// lane on 240 000 random cases — small and huge operands, every sign, strips
// crossing zero, and every guard edge — and declines exactly outside its
// guards. (A first cut without the m ≤ 2⁶² guard returned wrong remainders
// for m near 2⁶³: r + rs overflowed.)
func TestAffineDivModProperty(t *testing.T) {
	r := rand.New(rand.NewSource(20061025))
	pick := func() int64 {
		switch r.Intn(6) {
		case 0:
			return affineEdges[r.Intn(len(affineEdges))]
		case 1:
			return affineEdges[r.Intn(len(affineEdges))] + r.Int63n(9) - 4
		case 2:
			return r.Int63n(200) - 100
		case 3:
			return r.Int63n(1<<20) - 1<<19
		case 4:
			return r.Int63() >> r.Intn(63) * (1 - 2*r.Int63n(2))
		}
		return int64(r.Uint64())
	}
	const cases = 240000
	taken := 0
	for i := 0; i < cases; i++ {
		base, step, m := pick(), pick(), pick()
		if r.Intn(3) == 0 {
			m = 1 + r.Int63n(1<<(1+r.Intn(62)))
		}
		if r.Intn(4) == 0 {
			// Start a small stride just below zero or just above it.
			step = r.Int63n(40) - 20
			base = -step*int64(r.Intn(stripLen)) + r.Int63n(5) - 2
		}
		n := r.Intn(stripLen + 3)
		if checkAffineDivMod(t, base, step, m, n) {
			taken++
		}
	}
	for _, base := range affineEdges {
		for _, step := range affineEdges {
			for _, m := range affineEdges {
				for _, n := range []int{1, 2, stripLen - 1, stripLen} {
					if checkAffineDivMod(t, base, step, m, n) {
						taken++
					}
				}
			}
		}
	}
	t.Logf("%d of %d cases taken by the recurrence", taken, cases+4*len(affineEdges)*len(affineEdges)*len(affineEdges))
	if taken < cases/10 {
		t.Fatalf("only %d cases taken by the recurrence: the generator misses the fast path", taken)
	}
}

// FuzzAffineDivMod: for any (base, step, m, n) the recurrence either
// declines, writing nothing, exactly outside its guards, or equals the
// per-lane / and %. The committed corpus (testdata/fuzz) holds the guards'
// edges.
func FuzzAffineDivMod(f *testing.F) {
	f.Add(int64(-39), int64(1), int64(7), uint8(64))
	f.Add(int64(1<<61), int64(-(1 << 56)), int64(1<<62), uint8(64))
	f.Add(int64(-(1 << 61)), int64(1<<56), int64(math.MaxInt64), uint8(64))
	f.Fuzz(func(t *testing.T, base, step, m int64, n uint8) {
		checkAffineDivMod(t, base, step, m, int(n)%(stripLen+2))
	})
}
