// Package plan defines the serializable overlap plan the Compuniformer's
// Analyze → Plan → Apply pipeline revolves around. The paper frames overlap
// as a sequence of decisions — tile size K (§2), wait placement (§3.6),
// interchange vs. subset-send (§3.5) — and a Plan makes that decision space
// explicit: one Decision per MPI_ALLTOALL site (plus a default for sites not
// named), JSON round-trippable so a tuner can record it, a human can edit
// it, and core.Apply can replay it onto a parsed program.
package plan

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Schema identifies the plan JSON layout.
const Schema = "repro/plan/v1"

// DefaultK is the tile size used when nothing chooses one (the paper's §2
// leaves K to the user; 8 is a reasonable default for the simulated
// cluster).
const DefaultK = 8

// DefaultInterchangeMinBlockBytes is the §3.5 granularity gate: a legal
// interchange is applied only when the resulting Fig. 4 exchange sends
// contiguous blocks of at least this many bytes (blockElems × K × 4);
// below that, fragmentation overhead outweighs the balanced schedule.
const DefaultInterchangeMinBlockBytes = 2048

// WaitSchedule places the inter-tile waits (§3.6 step 2).
type WaitSchedule string

const (
	// WaitDeferred drains every request after the tiled loop — correct for
	// the direct pattern (no buffer reuse within ℓ) and avoids stalling a
	// tile's owner behind the incast. The default.
	WaitDeferred WaitSchedule = "deferred"
	// WaitPerTile is the paper's literal schedule: each tile blocks on the
	// previous tile's requests before posting its own.
	WaitPerTile WaitSchedule = "per-tile"
)

// SendOrder selects the subset-send partition traversal.
type SendOrder string

const (
	// SendStaggered uses the ring partition order per rank (me+1 first, own
	// partition last, receives pre-posted) whenever tile order independence
	// is provable — the incast fix. The default.
	SendStaggered SendOrder = "staggered"
	// SendSequential forces the paper's literal owner order 0..np-1 even
	// when reordering would be legal.
	SendSequential SendOrder = "sequential"
)

// Interchange gates the §3.5 loop interchange.
type Interchange string

const (
	// InterchangeAuto applies a legal interchange only when it passes the
	// message-granularity gate (MinBlockBytes). The default.
	InterchangeAuto Interchange = "auto"
	// InterchangeOn applies a legal interchange unconditionally.
	InterchangeOn Interchange = "on"
	// InterchangeOff never interchanges; the subset-send fallback is used.
	InterchangeOff Interchange = "off"
)

// Decision is the per-site knob vector: everything the transformation lets
// a caller (or tuner) choose about one MPI_ALLTOALL site — including the
// decision not to transform it at all.
type Decision struct {
	// Skip declines the transformation for this site: the paper's rewrite
	// is advice, not a mandate, and the identity plan is a first-class
	// member of plan space. A skipped site is left byte-for-byte untouched
	// by Apply, and every other knob is ignored (Normalize collapses a
	// skipped decision to its canonical form so the plan key cannot alias a
	// transformed decision).
	Skip bool `json:"skip,omitempty"`
	// K is the tile size (iterations of the finalized loop per tile).
	K int64 `json:"k"`
	// Wait places the inter-tile waits; empty means WaitDeferred.
	Wait WaitSchedule `json:"wait,omitempty"`
	// SendOrder picks the subset-send traversal; empty means SendStaggered.
	SendOrder SendOrder `json:"send_order,omitempty"`
	// Interchange gates the §3.5 interchange; empty means InterchangeAuto.
	Interchange Interchange `json:"interchange,omitempty"`
	// InterchangeMinBlockBytes tunes the auto gate; 0 means the default
	// (DefaultInterchangeMinBlockBytes). Ignored unless Interchange is auto.
	InterchangeMinBlockBytes int64 `json:"interchange_min_block_bytes,omitempty"`
}

// Identity returns the canonical "don't transform" decision.
func Identity() Decision { return Decision{Skip: true} }

// Normalize fills the zero knobs with their defaults and returns the result.
// A skipped decision collapses to the canonical identity: the other knobs
// are meaningless for an untransformed site, and collapsing them keeps the
// plan key unique (skip can never alias any transformed decision).
func (d Decision) Normalize() Decision {
	if d.Skip {
		return Identity()
	}
	if d.K == 0 {
		d.K = DefaultK
	}
	if d.Wait == "" {
		d.Wait = WaitDeferred
	}
	if d.SendOrder == "" {
		d.SendOrder = SendStaggered
	}
	if d.Interchange == "" {
		d.Interchange = InterchangeAuto
	}
	if d.Interchange == InterchangeAuto && d.InterchangeMinBlockBytes == 0 {
		d.InterchangeMinBlockBytes = DefaultInterchangeMinBlockBytes
	}
	return d
}

// Validate rejects a decision outside the knob space. A skipped decision is
// always valid — its other knobs are ignored (and Normalize drops them), but
// a negative K still signals a malformed plan.
func (d Decision) Validate() error {
	if d.Skip {
		if d.K < 0 {
			return fmt.Errorf("plan: tile size K must be ≥ 0 on a skipped site, got %d", d.K)
		}
		return nil
	}
	if d.K < 1 {
		return fmt.Errorf("plan: tile size K must be ≥ 1, got %d", d.K)
	}
	switch d.Wait {
	case "", WaitDeferred, WaitPerTile:
	default:
		return fmt.Errorf("plan: unknown wait schedule %q (want %q or %q)", d.Wait, WaitDeferred, WaitPerTile)
	}
	switch d.SendOrder {
	case "", SendStaggered, SendSequential:
	default:
		return fmt.Errorf("plan: unknown send order %q (want %q or %q)", d.SendOrder, SendStaggered, SendSequential)
	}
	switch d.Interchange {
	case "", InterchangeAuto, InterchangeOn, InterchangeOff:
	default:
		return fmt.Errorf("plan: unknown interchange mode %q (want %q, %q, or %q)",
			d.Interchange, InterchangeAuto, InterchangeOn, InterchangeOff)
	}
	if d.InterchangeMinBlockBytes < 0 {
		return fmt.Errorf("plan: interchange_min_block_bytes must be ≥ 0, got %d (use interchange %q to disable)",
			d.InterchangeMinBlockBytes, InterchangeOff)
	}
	return nil
}

// SitePlan binds a decision to one MPI_ALLTOALL site, identified by the
// "line:col" position of the call statement in the original source.
type SitePlan struct {
	Site     string   `json:"site"`
	Decision Decision `json:"decision"`
}

// Plan is a serializable per-site overlap plan. Sites not named fall back
// to Default, so a uniform plan is just a Default with no site entries.
type Plan struct {
	Schema string `json:"schema"`
	// Machine names the machine model the plan was built for ("" when the
	// plan is machine-agnostic). Informational: Apply does not consult it.
	Machine string `json:"machine,omitempty"`
	// NP is the rank count the plan targets; 0 means "use the program's
	// named constant np".
	NP      int64      `json:"np,omitempty"`
	Default Decision   `json:"default"`
	Sites   []SitePlan `json:"sites,omitempty"`
}

// Default returns the uniform plan for a machine model: the paper's default
// knobs (deferred waits, staggered sends, auto-gated interchange) with the
// machine's default tile size.
func Default(m Machine) *Plan {
	return &Plan{
		Schema:  Schema,
		Machine: m.Name,
		Default: Decision{K: m.DefaultK()}.Normalize(),
	}
}

// Uniform returns a machine-agnostic plan applying one decision everywhere.
func Uniform(d Decision) *Plan {
	return &Plan{Schema: Schema, Default: d.Normalize()}
}

// For returns the decision for the site at position pos ("line:col"),
// normalized, falling back to the plan default.
func (p *Plan) For(pos string) Decision {
	for _, s := range p.Sites {
		if s.Site == pos {
			return s.Decision.Normalize()
		}
	}
	return p.Default.Normalize()
}

// Set records a per-site decision, replacing any earlier entry for the site.
func (p *Plan) Set(pos string, d Decision) {
	for i := range p.Sites {
		if p.Sites[i].Site == pos {
			p.Sites[i].Decision = d
			return
		}
	}
	p.Sites = append(p.Sites, SitePlan{Site: pos, Decision: d})
}

// Validate checks the whole plan: schema, every decision, unique
// well-formed site keys.
func (p *Plan) Validate() error {
	if p.Schema != Schema {
		return fmt.Errorf("plan: schema %q, want %q", p.Schema, Schema)
	}
	if p.NP < 0 {
		return fmt.Errorf("plan: np must be ≥ 0, got %d", p.NP)
	}
	if err := p.Default.Validate(); err != nil {
		return fmt.Errorf("plan: default: %w", err)
	}
	seen := map[string]bool{}
	for _, s := range p.Sites {
		if err := validSiteKey(s.Site); err != nil {
			return err
		}
		if seen[s.Site] {
			return fmt.Errorf("plan: duplicate site %q", s.Site)
		}
		seen[s.Site] = true
		if err := s.Decision.Validate(); err != nil {
			return fmt.Errorf("plan: site %s: %w", s.Site, err)
		}
	}
	return nil
}

// validSiteKey checks the "line:col" format with positive integers.
func validSiteKey(site string) error {
	parts := strings.Split(site, ":")
	if len(parts) != 2 {
		return fmt.Errorf("plan: site key %q is not \"line:col\"", site)
	}
	for _, part := range parts {
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return fmt.Errorf("plan: site key %q is not \"line:col\"", site)
		}
	}
	return nil
}

// Encode marshals the plan (pretty-printed, trailing newline) after
// validating it.
func (p *Plan) Encode() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode unmarshals and validates a plan.
func Decode(b []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Key is a canonical fingerprint of the plan's decision content (schema and
// machine name excluded), suitable for memoizing Apply results.
func (p *Plan) Key() string {
	b := make([]byte, 0, 48*(1+len(p.Sites)))
	b = append(b, "np="...)
	b = strconv.AppendInt(b, p.NP, 10)
	b = append(b, ';')
	b = appendDecision(b, p.Default)
	// Site entries in the order recorded; Set keeps one entry per site.
	for _, s := range p.Sites {
		b = append(b, ';')
		b = append(b, s.Site...)
		b = append(b, ':')
		b = appendDecision(b, s.Decision)
	}
	return string(b)
}

// appendDecision appends the decision's key token, normalized.
func appendDecision(b []byte, d Decision) []byte {
	d = d.Normalize()
	if d.Skip {
		// The identity decision: no transformed decision can produce this
		// token (K is always ≥ 1 there), so skip never aliases.
		return append(b, "skip"...)
	}
	b = append(b, "k="...)
	b = strconv.AppendInt(b, d.K, 10)
	b = append(b, ",w="...)
	b = append(b, d.Wait...)
	b = append(b, ",s="...)
	b = append(b, d.SendOrder...)
	b = append(b, ",i="...)
	b = append(b, d.Interchange...)
	b = append(b, ",m="...)
	return strconv.AppendInt(b, d.InterchangeMinBlockBytes, 10)
}
