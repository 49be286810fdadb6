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

// TestStripNotesMatchElementNotes: a strip's loads and stores, tested first
// as the range their offsets span, flag the same first hazard as one check
// per element — over sparse and dense marks, contiguous, strided and
// scattered strips, and views that start inside the storage.
func TestStripNotesMatchElementNotes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 400
	flagged := 0
	for trial := 0; trial < 4000; trial++ {
		send, recv := make([]uint64, (n+63)/64), make([]uint64, (n+63)/64)
		for marks := rng.Intn(4); marks > 0; marks-- {
			bits := recv
			if rng.Intn(2) == 0 {
				bits = send
			}
			setBits(bits, rng.Int63n(n), rng.Int63n(8)+1)
		}
		view := rng.Int63n(100)
		lanes := rng.Intn(64) + 1
		offs := make([]int64, lanes)
		start, stride := rng.Int63n(n-view-int64(lanes)), int64(1)
		switch rng.Intn(3) {
		case 1:
			stride = rng.Int63n(4) + 2
		case 2:
			stride = 0
		}
		for l := range offs {
			offs[l] = start + int64(l)*stride
			if stride == 0 {
				offs[l] = rng.Int63n(n - view)
			}
			offs[l] = min(offs[l], n-view-1)
		}
		store := rng.Intn(2) == 0
		note := func(strip bool) string {
			tr := &RankTrace{}
			st := newStorage(KInt, n)
			st.watch = &watch{t: tr, send: append([]uint64(nil), send...), recv: append([]uint64(nil), recv...)}
			tr.watched = []*storage{st}
			a := &Array{Name: "x", Store: st, Offset: view}
			switch {
			case strip && store:
				a.NoteStores(offs)
			case strip:
				a.NoteLoads(offs)
			default:
				for _, off := range offs {
					if store {
						a.NoteStore(off)
					} else {
						a.NoteLoad(off)
					}
				}
			}
			return tr.hazard
		}
		got, want := note(true), note(false)
		if got != want {
			t.Fatalf("trial %d (store %v, view %d, offs %v): strip flags %q, elements flag %q", trial, store, view, offs, got, want)
		}
		if want != "" {
			flagged++
		}
	}
	t.Logf("%d of 4000 strips flagged", flagged)
	if flagged < 100 {
		t.Fatalf("only %d strips crossed a mark", flagged)
	}
}
