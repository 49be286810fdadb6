package plan

import (
	"fmt"
	"strings"
	"testing"
)

// formattedKey is Key as it was written with fmt, kept as the reference the
// appending Key must reproduce byte for byte.
func formattedKey(p *Plan) string {
	var sb strings.Builder
	writeDecision := func(d Decision) {
		d = d.Normalize()
		if d.Skip {
			sb.WriteString("skip")
			return
		}
		fmt.Fprintf(&sb, "k=%d,w=%s,s=%s,i=%s,m=%d", d.K, d.Wait, d.SendOrder, d.Interchange, d.InterchangeMinBlockBytes)
	}
	fmt.Fprintf(&sb, "np=%d;", p.NP)
	writeDecision(p.Default)
	for _, s := range p.Sites {
		sb.WriteString(";" + s.Site + ":")
		writeDecision(s.Decision)
	}
	return sb.String()
}

// TestKeyMatchesFormatted: over every knob combination (zero values, every
// named value, skip), as a default and as per-site entries, under two rank
// counts, Key equals the fmt form.
func TestKeyMatchesFormatted(t *testing.T) {
	var decs []Decision
	for _, skip := range []bool{false, true} {
		for _, k := range []int64{0, 1, 8, 300} {
			for _, w := range []WaitSchedule{"", WaitDeferred, WaitPerTile} {
				for _, s := range []SendOrder{"", SendStaggered, SendSequential} {
					for _, i := range []Interchange{"", InterchangeAuto, InterchangeOn, InterchangeOff} {
						for _, m := range []int64{0, 1, 4096} {
							decs = append(decs, Decision{Skip: skip, K: k, Wait: w, SendOrder: s, Interchange: i, InterchangeMinBlockBytes: m})
						}
					}
				}
			}
		}
	}
	check := func(p *Plan) {
		t.Helper()
		if got, want := p.Key(), formattedKey(p); got != want {
			t.Fatalf("Key %q, fmt form %q", got, want)
		}
	}
	for i, d := range decs {
		for _, np := range []int64{0, 8} {
			p := &Plan{Schema: Schema, NP: np, Default: d}
			check(p)
			p.Set("12:3", decs[(i*7+1)%len(decs)])
			p.Set("40:15", decs[(i*13+5)%len(decs)])
			check(p)
		}
	}
	t.Logf("%d decisions", len(decs))
}
