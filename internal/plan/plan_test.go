package plan

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestJSONRoundTrip: Encode → Decode must be the identity on a plan with a
// default and per-site overrides.
func TestJSONRoundTrip(t *testing.T) {
	p := Default(MPICHGM2005())
	p.NP = 8
	p.Set("12:3", Decision{K: 4, Wait: WaitPerTile, SendOrder: SendSequential, Interchange: InterchangeOff})
	p.Set("40:5", Decision{K: 16, Interchange: InterchangeOn}.Normalize())

	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, b)
	}
	if !reflect.DeepEqual(p, back) {
		t.Errorf("round trip changed the plan:\nbefore %+v\nafter  %+v", p, back)
	}
	if back.Key() != p.Key() {
		t.Errorf("round trip changed the key: %q vs %q", p.Key(), back.Key())
	}
}

// TestMultiSiteDivergentRoundTrip: a plan giving every site of a
// multi-site program its own decision — different K, wait, send order, and
// interchange gate per site — must survive Encode → Decode byte-exactly,
// resolve each site to its own decision, and keep distinct keys from any
// uniform collapse of it.
func TestMultiSiteDivergentRoundTrip(t *testing.T) {
	decisions := map[string]Decision{
		"21:3": Decision{K: 256}.Normalize(),
		"30:3": Decision{K: 4, Wait: WaitPerTile}.Normalize(),
		"42:3": Decision{K: 16, SendOrder: SendSequential, Interchange: InterchangeOff}.Normalize(),
	}
	p := Uniform(Decision{K: 8})
	for site, d := range decisions {
		p.Set(site, d)
	}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, b)
	}
	if !reflect.DeepEqual(p, back) {
		t.Errorf("round trip changed the plan:\nbefore %+v\nafter  %+v", p, back)
	}
	for site, want := range decisions {
		if got := back.For(site); got != want {
			t.Errorf("site %s resolved to %+v, want %+v", site, got, want)
		}
	}
	// A site not named still falls back to the default.
	if got := back.For("99:1"); got != p.Default.Normalize() {
		t.Errorf("unnamed site resolved to %+v", got)
	}
	// Divergence is visible in the key: collapsing every site onto the
	// default must change it.
	if back.Key() == Uniform(Decision{K: 8}).Key() {
		t.Error("divergent plan keys like the uniform plan")
	}
}

// TestDefaultPlan: the Default constructor yields a valid, normalized,
// machine-stamped uniform plan.
func TestDefaultPlan(t *testing.T) {
	for _, m := range Builtin() {
		p := Default(m)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: default plan invalid: %v", m.Name, err)
		}
		if p.Machine != m.Name {
			t.Errorf("%s: plan records machine %q", m.Name, p.Machine)
		}
		d := p.For("1:1") // unnamed site falls back to the default
		if d.K != m.DefaultK() || d.Wait != WaitDeferred || d.SendOrder != SendStaggered || d.Interchange != InterchangeAuto {
			t.Errorf("%s: default decision %+v", m.Name, d)
		}
		if d.InterchangeMinBlockBytes != DefaultInterchangeMinBlockBytes {
			t.Errorf("%s: auto gate threshold %d", m.Name, d.InterchangeMinBlockBytes)
		}
	}
}

// TestValidationRejections: every way a plan can be malformed is rejected
// with a diagnostic naming the problem.
func TestValidationRejections(t *testing.T) {
	valid := func() *Plan {
		p := Default(MPICHGM2005())
		p.Set("3:7", Decision{K: 2}.Normalize())
		return p
	}
	cases := []struct {
		name   string
		break_ func(*Plan)
		want   string
	}{
		{"bad schema", func(p *Plan) { p.Schema = "repro/plan/v0" }, "schema"},
		{"negative np", func(p *Plan) { p.NP = -2 }, "np"},
		{"zero default K", func(p *Plan) { p.Default.K = 0 }, "K must be"},
		{"negative site K", func(p *Plan) { p.Sites[0].Decision.K = -4 }, "K must be"},
		{"bad wait", func(p *Plan) { p.Default.Wait = "sometimes" }, "wait"},
		{"bad send order", func(p *Plan) { p.Sites[0].Decision.SendOrder = "random" }, "send order"},
		{"bad interchange", func(p *Plan) { p.Default.Interchange = "maybe" }, "interchange"},
		{"negative gate", func(p *Plan) { p.Default.InterchangeMinBlockBytes = -1 }, "interchange_min_block_bytes"},
		{"malformed site key", func(p *Plan) { p.Sites[0].Site = "l12c3" }, "line:col"},
		{"zero site key", func(p *Plan) { p.Sites[0].Site = "0:4" }, "line:col"},
		{"duplicate site", func(p *Plan) { p.Sites = append(p.Sites, p.Sites[0]) }, "duplicate"},
	}
	for _, c := range cases {
		p := valid()
		c.break_(p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: validated", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		if _, err := p.Encode(); err == nil {
			t.Errorf("%s: Encode accepted an invalid plan", c.name)
		}
	}
	if _, err := Decode([]byte(`{"schema":"repro/plan/v1","default":{"k":0}}`)); err == nil {
		t.Error("Decode accepted K=0")
	}
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Error("Decode accepted garbage")
	}
}

// TestKeyDistinguishesKnobs: the memo key must separate any two plans that
// differ in a knob, and normalize spelled-out defaults onto the same key.
func TestKeyDistinguishesKnobs(t *testing.T) {
	base := Uniform(Decision{K: 8})
	seen := map[string]string{base.Key(): "base"}
	variants := map[string]*Plan{
		"k":     Uniform(Decision{K: 4}),
		"wait":  Uniform(Decision{K: 8, Wait: WaitPerTile}),
		"order": Uniform(Decision{K: 8, SendOrder: SendSequential}),
		"inter": Uniform(Decision{K: 8, Interchange: InterchangeOff}),
		"gate":  Uniform(Decision{K: 8, InterchangeMinBlockBytes: 4096}),
		"np":    {Schema: Schema, NP: 4, Default: Decision{K: 8}},
		"site":  {Schema: Schema, Default: Decision{K: 8}, Sites: []SitePlan{{Site: "2:3", Decision: Decision{K: 4}}}},
	}
	for name, p := range variants {
		k := p.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q on key %q", name, prev, k)
		}
		seen[k] = name
	}
	// Explicit defaults normalize onto the same key as zero values.
	explicit := Uniform(Decision{K: 8, Wait: WaitDeferred, SendOrder: SendStaggered,
		Interchange: InterchangeAuto, InterchangeMinBlockBytes: DefaultInterchangeMinBlockBytes})
	if explicit.Key() != base.Key() {
		t.Errorf("explicit defaults key %q differs from zero-value key %q", explicit.Key(), base.Key())
	}
}

// TestSkipRoundTripAndKey: the identity decision must survive JSON
// round-trips, collapse to a canonical form, and key distinctly from every
// transformed knob combination — skip can never alias a transformed plan.
func TestSkipRoundTripAndKey(t *testing.T) {
	p := Uniform(Decision{K: 8})
	p.Set("12:3", Identity())
	p.Set("40:5", Decision{K: 64}.Normalize())
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"skip": true`) {
		t.Errorf("encoded plan does not spell out skip:\n%s", b)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, b)
	}
	if !reflect.DeepEqual(p, back) {
		t.Errorf("round trip changed the plan:\nbefore %+v\nafter  %+v", p, back)
	}
	if got := back.For("12:3"); !got.Skip {
		t.Errorf("skipped site resolved to %+v", got)
	}
	if got := back.For("40:5"); got.Skip || got.K != 64 {
		t.Errorf("transformed site resolved to %+v", got)
	}

	// Key uniqueness: the skip-all plan keys apart from every knob
	// combination the search can express.
	skipAll := Uniform(Identity())
	skipKey := skipAll.Key()
	for _, k := range []int64{1, 2, 8, 64, 1024} {
		for _, w := range []WaitSchedule{WaitDeferred, WaitPerTile} {
			for _, so := range []SendOrder{SendStaggered, SendSequential} {
				for _, ic := range []Interchange{InterchangeAuto, InterchangeOn, InterchangeOff} {
					d := Decision{K: k, Wait: w, SendOrder: so, Interchange: ic}
					if Uniform(d).Key() == skipKey {
						t.Fatalf("skip-all key %q collides with transformed decision %+v", skipKey, d)
					}
				}
			}
		}
	}
	// A mixed plan keys apart from both the skip-all and the all-transform
	// collapse of it.
	if k := p.Key(); k == skipKey || k == Uniform(Decision{K: 8}).Key() {
		t.Errorf("mixed skip/transform plan key %q collides with a uniform collapse", k)
	}
	// Skip is canonical: whatever knobs ride along on a skipped decision,
	// the normalized form (and hence the key) is the bare identity.
	noisy := Decision{Skip: true, K: 512, Wait: WaitPerTile, SendOrder: SendSequential, Interchange: InterchangeOn}
	if noisy.Normalize() != Identity() {
		t.Errorf("skip did not collapse: %+v", noisy.Normalize())
	}
	if Uniform(noisy).Key() != skipKey {
		t.Errorf("noisy skip keys differently: %q vs %q", Uniform(noisy).Key(), skipKey)
	}
	if err := Uniform(Decision{Skip: true}).Validate(); err != nil {
		t.Errorf("bare skip decision rejected: %v", err)
	}
	if err := (Decision{Skip: true, K: -1}).Validate(); err == nil {
		t.Error("negative K accepted on a skipped decision")
	}
}

// TestMachineRegistry: the built-ins resolve by their full names only (the
// short profile names of the first generation are unknown machines), and
// include an offload-capable modern model next to the paper pair.
func TestMachineRegistry(t *testing.T) {
	for _, name := range []string{"mpich-tcp-2005", "mpich-gm-2005", "hpc-rdma-2019"} {
		m, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if m.Profile.Name != m.Name {
			t.Errorf("%s: profile name %q diverges from machine name", name, m.Profile.Name)
		}
		if m.Costs.Op <= 0 || m.Profile.GapNsPerByte <= 0 {
			t.Errorf("%s: uncalibrated machine: %+v", name, m)
		}
	}
	for _, name := range []string{"cray-t3e", "mpich-gm", "mpich-tcp", "MPICH-GM-2005"} {
		if _, err := ByName(name); !errors.Is(err, ErrUnknownMachine) {
			t.Errorf("ByName(%q) = %v, want ErrUnknownMachine", name, err)
		}
	}
	const nope = `plan: unknown machine "nope" (have hpc-rdma-2019, mpich-gm-2005, mpich-tcp-2005)`
	if _, err := ByName("nope"); err == nil || err.Error() != nope {
		t.Errorf("ByName(\"nope\") = %v, want %s", err, nope)
	}
	// ByName builds the one model asked for: every built-in, by its name.
	for _, m := range Builtin() {
		if got, err := ByName(m.Name); err != nil || got != m {
			t.Errorf("ByName(%q) = %+v, %v; want %+v", m.Name, got, err, m)
		}
	}
	gm, _ := ByName("mpich-gm-2005")
	if !gm.Profile.Offload {
		t.Error("mpich-gm-2005 must keep the offload capability")
	}
	modern, _ := ByName("hpc-rdma-2019")
	if !modern.Profile.Offload {
		t.Error("the modern RDMA machine must be offload-capable")
	}
	if modern.Profile.GapNsPerByte >= gm.Profile.GapNsPerByte {
		t.Error("the modern machine should have higher bandwidth than 2005 Myrinet")
	}
	if pair := PaperPair(); len(pair) != 2 || pair[0].Profile.Offload || !pair[1].Profile.Offload {
		t.Errorf("PaperPair should be (host-progress, offload): %+v", pair)
	}
}
