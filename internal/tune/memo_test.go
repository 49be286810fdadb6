package tune

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/workload"
)

// memoTestInput is a small single-site kernel plus machines, cheap enough
// to tune twice in a unit test.
func memoTestInput() Input {
	return Input{
		Source: workload.DirectSource(workload.DirectParams{NX: 4096, NP: 4}),
		NP:     4,
		FixedK: 256,
		Machines: []plan.Machine{
			plan.MPICHGM2005(),
			plan.MPICHTCP2005(),
		},
	}
}

// TestMemoShortCircuitsRepeatQueries: the second Tune over the same
// (shape, machine) pair must be served from the memo — same plan, no
// additional measured runs against the variant store.
func TestMemoShortCircuitsRepeatQueries(t *testing.T) {
	in := memoTestInput()
	memo := NewMemo()
	store := exec.NewMemStore()
	opts := Options{Memo: memo, Store: store}

	first, err := Tune(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	compiledAfterFirst := store.Stats().Compiled
	if compiledAfterFirst == 0 {
		t.Fatal("first tune measured nothing through the store")
	}
	for _, ch := range first {
		if ch.MemoHit {
			t.Fatalf("%s: fresh search marked as memo hit", ch.Machine)
		}
	}
	st := memo.Stats()
	if st.Hits != 0 || st.Misses != int64(len(in.Machines)) || st.Entries != int64(len(in.Machines)) {
		t.Fatalf("memo stats after first tune = %+v", st)
	}

	second, err := Tune(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().Compiled; got != compiledAfterFirst {
		t.Fatalf("repeat query compiled %d new variants, want 0", got-compiledAfterFirst)
	}
	if st := memo.Stats(); st.Hits != int64(len(in.Machines)) {
		t.Fatalf("memo stats after repeat tune = %+v", st)
	}
	for i, ch := range second {
		if !ch.MemoHit {
			t.Fatalf("%s: repeat query not served from memo", ch.Machine)
		}
		if ch.Plan.Key() != first[i].Plan.Key() {
			t.Fatalf("%s: memoized plan differs from the tuned plan", ch.Machine)
		}
		if ch.Speedup != first[i].Speedup || ch.Evaluations != first[i].Evaluations {
			t.Fatalf("%s: memoized measurements differ: %+v vs %+v", ch.Machine, ch, first[i])
		}
	}
}

// TestMemoAliasesShapeIdenticalSources: a source differing only in a
// trailing comment presents the identical tuning problem, so the memo must
// serve it without a second search — the whole point of fingerprint keys
// over content keys.
func TestMemoAliasesShapeIdenticalSources(t *testing.T) {
	in := memoTestInput()
	in.Machines = in.Machines[:1]
	memo := NewMemo()
	opts := Options{Memo: memo, Store: exec.NewMemStore()}
	if _, err := Tune(in, opts); err != nil {
		t.Fatal(err)
	}

	tweaked := in
	lines := strings.SplitN(in.Source, "\n", 2)
	tweaked.Source = lines[0] + " ! incidental\n" + lines[1]
	got, err := Tune(tweaked, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].MemoHit {
		t.Fatal("shape-identical source missed the memo")
	}
}

// TestMemoSplitsOnSearchParameters: a different rank count, fixed K, budget
// or array set would run a different search, so none of them may alias.
func TestMemoSplitsOnSearchParameters(t *testing.T) {
	base := MemoKey("fp1-x", Input{NP: 4, FixedK: 256}, 14, []string{"ar"})
	variants := []string{
		MemoKey("fp1-x", Input{NP: 8, FixedK: 256}, 14, []string{"ar"}),
		MemoKey("fp1-x", Input{NP: 4, FixedK: 128}, 14, []string{"ar"}),
		MemoKey("fp1-x", Input{NP: 4, FixedK: 256}, 20, []string{"ar"}),
		MemoKey("fp1-x", Input{NP: 4, FixedK: 256}, 14, []string{"ar", "br"}),
		MemoKey("fp1-y", Input{NP: 4, FixedK: 256}, 14, []string{"ar"}),
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d aliases the base memo key: %s", i, v)
		}
	}
	// Array order is not a search parameter.
	if MemoKey("fp1-x", Input{NP: 4}, 14, []string{"br", "ar"}) !=
		MemoKey("fp1-x", Input{NP: 4}, 14, []string{"ar", "br"}) {
		t.Error("memo key depends on array order")
	}
}

// TestMemoHandsOutDeepCopies: mutating a looked-up choice (as harness rows
// do when they annotate plans) must not corrupt the memo.
func TestMemoHandsOutDeepCopies(t *testing.T) {
	memo := NewMemo()
	ch := Choice{
		Machine: "m",
		Plan:    &plan.Plan{Schema: plan.Schema, Sites: []plan.SitePlan{{Site: "1:1", Decision: plan.Decision{K: 8}}}},
		Sites:   []SiteChoice{{Site: "1:1", SeedKs: []int64{2, 4}}},
		Candidates: []Candidate{
			{Decisions: []plan.Decision{{K: 8}}},
		},
	}
	memo.Store("k", ch)

	got, ok := memo.Lookup("k")
	if !ok {
		t.Fatal("stored choice not found")
	}
	got.Plan.Sites[0].Decision.K = 999
	got.Sites[0].SeedKs[0] = 999
	got.Candidates[0].Decisions[0].K = 999

	again, _ := memo.Lookup("k")
	if again.Plan.Sites[0].Decision.K != 8 ||
		again.Sites[0].SeedKs[0] != 2 ||
		again.Candidates[0].Decisions[0].K != 8 {
		t.Fatal("memo entry mutated through a looked-up copy")
	}
	// The stored entry must also be insulated from the caller's original.
	ch.Plan.Sites[0].Decision.K = 777
	final, _ := memo.Lookup("k")
	if final.Plan.Sites[0].Decision.K != 8 {
		t.Fatal("memo entry aliases the caller's plan")
	}
}
