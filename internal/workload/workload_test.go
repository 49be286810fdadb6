package workload

import (
	"strings"
	"testing"

	"repro/internal/ftn"
	"repro/internal/interp"
	"repro/internal/netsim"
)

func TestGeneratedSourcesParse(t *testing.T) {
	sources := map[string]string{
		"direct":   DirectSource(DirectParams{NX: 32, Outer: 2, NP: 4, Weight: 2}),
		"inner3d":  Inner3DSource(Inner3DParams{M: 8, NY: 8, SZ: 4, NP: 2, Weight: 1}),
		"indirect": IndirectSource(IndirectParams{N: 4, NP: 2, Weight: 1}),
	}
	for name, src := range sources {
		if _, err := ftn.Parse(src); err != nil {
			t.Errorf("%s does not parse: %v\n%s", name, err, src)
		}
	}
}

func TestGeneratedSourcesRun(t *testing.T) {
	cases := []struct {
		name string
		src  string
		np   int
	}{
		{"direct", DirectSource(DirectParams{NX: 32, Outer: 2, NP: 4, Weight: 1}), 4},
		{"inner3d", Inner3DSource(Inner3DParams{M: 8, NY: 8, SZ: 4, NP: 4, Weight: 1}), 4},
		{"indirect", IndirectSource(IndirectParams{N: 4, NP: 4, Weight: 1}), 4},
	}
	for _, c := range cases {
		p, err := interp.Load(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := p.Run(c.np, netsim.MPICHGM())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(res.Output[0]) == 0 || !strings.Contains(res.Output[0][0], "checksum") {
			t.Errorf("%s: no checksum printed: %v", c.name, res.Output[0])
		}
	}
}
