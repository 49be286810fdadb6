package session

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/tune"
)

// TestMemoSplitsOnSearchParameters: a different program shape, machine
// model, rank count, fixed K, budget or array set would run a different
// search, so none of them may alias; array order and the spelling of "the
// default budget" are not parameters.
func TestMemoSplitsOnSearchParameters(t *testing.T) {
	gm := plan.MPICHGM2005()
	p := tune.Params{NP: 4, FixedK: 256, MaxMeasured: 14, Arrays: []string{"ar"}}
	base := newMemoKey("fp1-x", gm, p)

	renamed, slowWire, slowCPU := gm, gm, gm
	renamed.Name = "mpich-gm-2005b"
	slowWire.Profile.GapNsPerByte *= 2
	slowCPU.Costs.Store *= 2
	with := func(edit func(*tune.Params)) tune.Params {
		q := p
		edit(&q)
		return q
	}
	variants := map[string]memoKey{
		"fingerprint":  newMemoKey("fp1-y", gm, p),
		"machine name": newMemoKey("fp1-x", renamed, p),
		"profile":      newMemoKey("fp1-x", slowWire, p),
		"costs":        newMemoKey("fp1-x", slowCPU, p),
		"np":           newMemoKey("fp1-x", gm, with(func(q *tune.Params) { q.NP = 8 })),
		"fixed k":      newMemoKey("fp1-x", gm, with(func(q *tune.Params) { q.FixedK = 128 })),
		"budget":       newMemoKey("fp1-x", gm, with(func(q *tune.Params) { q.MaxMeasured = 20 })),
		"arrays":       newMemoKey("fp1-x", gm, with(func(q *tune.Params) { q.Arrays = []string{"ar", "br"} })),
	}
	for what, v := range variants {
		if v == base {
			t.Errorf("a different %s aliases the base memo key", what)
		}
	}
	if newMemoKey("fp1-x", gm, with(func(q *tune.Params) { q.Arrays = []string{"br", "ar"} })) !=
		variants["arrays"] {
		t.Error("memo key depends on array order")
	}
	if newMemoKey("fp1-x", gm, with(func(q *tune.Params) { q.MaxMeasured = 0 })) !=
		newMemoKey("fp1-x", gm, with(func(q *tune.Params) { q.MaxMeasured = -1 })) {
		t.Error("memo key splits two spellings of the default budget")
	}
}
