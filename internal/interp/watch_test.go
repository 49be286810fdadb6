package interp

import (
	"math/rand"
	"testing"
)

// TestBitRangesMatchAModel holds the watch's word-at-a-time range operations
// to one bool per element, across word boundaries and at the storage's ends.
func TestBitRangesMatchAModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int64{1, 63, 64, 65, 130, 200} {
		bits := make([]uint64, (n+63)/64)
		model := make([]bool, n)
		for step := 0; step < 2000; step++ {
			lo := rng.Int63n(n)
			cnt := rng.Int63n(n-lo+1) + int64(rng.Intn(2)) - 1 // empty and negative ranges too
			if lo+cnt > n {
				cnt = n - lo
			}
			want := false
			for i := lo; i < lo+cnt; i++ {
				want = want || model[i]
			}
			if got := anyBit(bits, lo, cnt); got != want {
				t.Fatalf("n=%d: anyBit(%d, %d) = %v, model %v", n, lo, cnt, got, want)
			}
			set := rng.Intn(2) == 0
			if set {
				setBits(bits, lo, cnt)
			} else {
				clearBits(bits, lo, cnt)
			}
			for i := lo; i < lo+cnt; i++ {
				model[i] = set
			}
			for i := int64(0); i < n; i++ {
				if got := bits[i>>6]>>(i&63)&1 != 0; got != model[i] {
					t.Fatalf("n=%d: after %v(%d, %d) element %d is %v, model %v", n, set, lo, cnt, i, got, model[i])
				}
			}
		}
	}
}
