package interp

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// foldOp is one operation of a recorded stream and the charges before it.
type foldOp struct {
	e skelEntry // slot: a wait's request handle
	c ChargeCounts
}

// foldStream decodes b into a rank's operation stream: segments of eight
// bytes, each a pattern of p operations repeated reps times with a stride
// per field of each pattern entry, drawn from a seed. Flags break one field
// of one entry of one iteration, give every pattern entry charges of its own
// (so only the whole pattern repeats), or admit opNone mid-stream. The
// stream ends, as a recording does, in opNone.
func foldStream(b []byte) []foldOp {
	var out []foldOp
	ops := []mpiOp{opIsend, opIrecv, opSend, opRecv, opWait, opBarrier, opAlltoall, opNone}
	for seg := int64(0); len(b) >= 8 && len(out) < 20000; seg, b = seg+1, b[8:] {
		p := 1 + int(binary.BigEndian.Uint16(b))%300
		reps, flags := int(b[2])%24, b[3]
		rng := rand.New(rand.NewSource(int64(binary.BigEndian.Uint32(b[4:]))))
		kinds := len(ops) - 1
		if flags&4 != 0 {
			kinds++
		}
		step := func() int64 {
			if rng.Intn(3) == 0 {
				return 0
			}
			return int64(rng.Intn(7) - 3)
		}
		pat, stride := make([]foldOp, p), make([]skelEntry, p)
		for j := range pat {
			e := &pat[j].e
			e.op = ops[rng.Intn(kinds)]
			e.peer, e.tag, e.bytes, e.slot = rng.Int31n(8), 1000+rng.Int63n(100), rng.Int63n(1<<20), 1+rng.Int31n(64)
			pat[j].c = ChargeCounts{rng.Int63n(3)}
			if flags&2 != 0 {
				pat[j].c = ChargeCounts{int64(j) + 1, seg}
			}
			stride[j] = skelEntry{bytes: step(), tag: step(), peer: int32(step()), slot: int32(step())}
		}
		breakAt := -1
		if flags&1 != 0 && reps > 0 {
			breakAt = int(flags>>3)%reps*p + rng.Intn(p)
		}
		for i := 0; i < reps; i++ {
			for j := range pat {
				o := foldOp{e: pat[j].e.advanced(&stride[j], int64(i)), c: pat[j].c}
				if len(out)%(reps*p+1) == breakAt {
					o.e.tag += 1 + int64(flags>>3)
				}
				out = append(out, o)
			}
		}
	}
	return append(out, foldOp{e: skelEntry{op: opNone}})
}

// recordStream records ops into a fresh one-rank trace.
func recordStream(ops []foldOp) *RankTrace {
	t := NewRankTrace(1)
	for _, o := range ops {
		t.Charge(&o.c, 1)
		t.record(o.e)
	}
	t.finish()
	return t
}

// requireFoldExpands holds the folded form of ops to ops: it expands back to
// them — operation, peer, tag, bytes, request handle and charges — stores no
// more entries than ops, and a second recording of ops folds alike. It
// returns the trace.
func requireFoldExpands(t *testing.T, ops []foldOp) *RankTrace {
	t.Helper()
	tr := recordStream(ops)
	if tr.spoiled {
		t.Fatalf("%d operations: the recording spoiled", len(ops))
	}
	x := skelCursor{es: tr.entries}
	for i, o := range ops {
		e, ok := x.next()
		if !ok {
			t.Fatalf("the folded form ends after %d of %d operations", i, len(ops))
		}
		c := tr.counts[e.counts]
		e.counts = 0
		if e != o.e || c != o.c {
			t.Fatalf("operation %d expands to %+v after %v, recorded %+v after %v", i, e, c, o.e, o.c)
		}
	}
	if e, ok := x.next(); ok {
		t.Fatalf("the folded form runs past the %d operations recorded: %+v", len(ops), e)
	}
	if n := tr.logical(); n != int64(len(ops)) {
		t.Fatalf("logical() = %d, %d recorded", n, len(ops))
	}
	if len(tr.entries) > len(ops) {
		t.Fatalf("%d entries stored for %d operations", len(tr.entries), len(ops))
	}
	if again := recordStream(ops); !reflect.DeepEqual(again.rankSkel, tr.rankSkel) {
		t.Fatalf("one stream folded two ways")
	}
	return tr
}

// seg is one segment of foldStream's input.
func seg(p, reps int, flags byte, seed uint32) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint16(b, uint16(p-1))
	b[2], b[3] = byte(reps), flags
	binary.BigEndian.PutUint32(b[4:], seed)
	return b
}

// FuzzSkeletonFold: any operation stream, folded as it is recorded, expands
// back to itself, and equal streams fold alike. The committed seeds
// (testdata/fuzz/FuzzSkeletonFold) are a strided loop of one operation, a
// tile of twelve, one whose stride breaks midway, a short last tile, periods
// one under, at and one past maxPeriod, opNone mid-stream, and one pattern
// twice, the second broken.
func FuzzSkeletonFold(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		requireFoldExpands(t, foldStream(b))
	})
}

// TestFoldStoresEachPatternOnce: a pattern of distinct operations repeated
// five times is stored as one run — its header, and an entry and a stride
// per pattern entry — up to maxPeriod entries; one entry longer, it is stored
// as it came.
func TestFoldStoresEachPatternOnce(t *testing.T) {
	for _, p := range []int{1, 2, 12, maxPeriod - 1, maxPeriod, maxPeriod + 1} {
		ops := foldStream(seg(p, 5, 2, uint32(p)))
		tr := requireFoldExpands(t, ops)
		want := 2*p + 2 // the run, then the closing opNone
		if p > maxPeriod {
			want = len(ops)
		}
		if len(tr.entries) != want {
			t.Errorf("period %d: %d entries stored for %d operations, want %d", p, len(tr.entries), len(ops), want)
		}
	}
}

// TestOpenTableKeepsOpenRequests: a table of requests posted and waited in
// random order answers each open handle with its own value, and holds no
// more than four times the span from the oldest open request to the newest.
func TestOpenTableKeepsOpenRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		var tab openTable
		open := map[int32]bool{}
		posted, span := int32(0), int32(1)
		for step := 0; step < 3000; step++ {
			if len(open) == 0 || rng.Intn(2+trial%3) > 0 {
				posted++
				tab.push(reqMark{lo: int64(posted)})
				open[posted] = true
			} else {
				h := posted - rng.Int31n(min(posted, 40))
				if !open[h] {
					continue
				}
				tab.at(h).waited = true
				delete(open, h)
			}
			oldest := posted
			for h := range open {
				oldest = min(oldest, h)
				if got := tab.at(h).lo; got != int64(h) {
					t.Fatalf("trial %d: handle %d holds %d", trial, h, got)
				}
			}
			span = max(span, posted-oldest+1)
			if int32(cap(tab.vals)) > 4*span+8 {
				t.Fatalf("trial %d: the table holds %d for a span of %d", trial, cap(tab.vals), span)
			}
		}
	}
}

// TestDisagreeNamesTheFirstDifferingOperation: two recordings that differ in
// one operation deep inside a run disagree at that operation's index, not at
// the stored entry that holds the run.
func TestDisagreeNamesTheFirstDifferingOperation(t *testing.T) {
	ops := foldStream(seg(12, 20, 2, 2))
	other := append([]foldOp(nil), ops...)
	const at = 12*13 + 5
	other[at].e.tag++
	skel := func(ops []foldOp) *Skeleton {
		return &Skeleton{ranks: []rankSkel{recordStream(ops).rankSkel}}
	}
	a, b := skel(ops), skel(other)
	if got := Disagree(a, a); got != "" {
		t.Fatalf("a recording disagrees with itself: %s", got)
	}
	if got, want := Disagree(a, b), fmt.Sprintf("rank 0 entry %d:", at); !strings.HasPrefix(got, want) {
		t.Fatalf("Disagree = %q, want it to start %q", got, want)
	}
}
