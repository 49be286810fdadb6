package interp

import (
	"math"
	"testing"
)

// TestArrayDigestStandsForItsData: SameOutput takes a digest for the data it
// was made from, in either position, and for nothing else — not a changed
// element, not the sign bits of two elements at once (what a word-wise FNV
// would cancel), not another length, not the other kind with the same bits.
func TestArrayDigestStandsForItsData(t *testing.T) {
	ints := []int64{3, -1, 0, 1 << 40}
	reals := []float64{0, 1.5, -2.25, 0}
	result := func(a, b interface{}) *Result {
		return &Result{Output: [][]string{nil}, Arrays: []map[string]interface{}{{"a": a, "b": b}}}
	}
	data := result(ints, reals)
	digests := result(Digest(ints), Digest(reals))
	for _, pair := range [][2]*Result{{data, digests}, {digests, data}, {digests, digests}} {
		if same, why := SameOutput(pair[0], pair[1]); !same {
			t.Fatalf("digest does not stand for its data: %s", why)
		}
		if same, why := SameObservable(pair[0], pair[1], "a", "b"); !same {
			t.Fatalf("digest does not stand for its data: %s", why)
		}
	}
	bits := make([]int64, len(reals))
	for i, f := range reals {
		bits[i] = int64(math.Float64bits(f))
	}
	for name, other := range map[string]*Result{
		"changed element":   result([]int64{3, -1, 0, 1<<40 + 1}, reals),
		"swapped lanes":     result([]int64{-1, 3, 0, 1 << 40}, reals),
		"lanes rotated":     result([]int64{1 << 40, 3, -1, 0}, reals),
		"two sign flips":    result(ints, []float64{math.Copysign(0, -1), 1.5, -2.25, math.Copysign(0, -1)}),
		"shorter":           result(ints[:3], reals),
		"same bits as ints": result(ints, bits),
	} {
		if same, _ := SameOutput(other, digests); same {
			t.Errorf("%s: taken for the digested data", name)
		}
		if same, _ := SameObservable(digests, other, "a", "b"); same {
			t.Errorf("%s: taken for the digested data (digest first)", name)
		}
	}
}
