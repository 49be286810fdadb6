package plan

import (
	"bytes"
	"testing"
)

// FuzzPlanJSON holds the plan codec to its round trip on any input: Decode
// never panics, and a plan it accepts encodes, decodes again to the same
// Key, and re-encodes byte for byte.
func FuzzPlanJSON(f *testing.F) {
	p := Default(MPICHGM2005())
	p.NP = 8
	p.Set("12:3", Decision{K: 4, Wait: WaitPerTile, SendOrder: SendSequential, Interchange: InterchangeOff})
	p.Set("40:5", Decision{K: 16, Interchange: InterchangeOn}.Normalize())
	p.Set("7:1", Identity())
	for _, q := range []*Plan{p, Uniform(Decision{K: 1}), Uniform(Identity())} {
		b, err := q.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"schema":"repro/plan/v1","default":{"k":0}}`))
	f.Add([]byte(`{"schema":"repro/plan/v1","default":{"k":8},"sites":[{"site":"1:1","decision":{"k":2}},{"site":"1:1","decision":{"k":4}}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Decode(b)
		if err != nil {
			return
		}
		once, err := p.Encode()
		if err != nil {
			t.Fatalf("a decoded plan does not encode: %v\n%s", err, b)
		}
		back, err := Decode(once)
		if err != nil {
			t.Fatalf("an encoded plan does not decode: %v\n%s", err, once)
		}
		if back.Key() != p.Key() {
			t.Fatalf("round trip moved the key: %q vs %q", p.Key(), back.Key())
		}
		if twice, err := back.Encode(); err != nil || !bytes.Equal(twice, once) {
			t.Fatalf("re-encoding differs (%v):\n%s\nvs\n%s", err, once, twice)
		}
	})
}
