// Package core is the Compuniformer: the paper's source-to-source
// transformer that restructures MPI codes using MPI_ALLTOALL into tiled,
// pre-pushing codes that overlap communication with computation.
//
// The public API is a three-stage pipeline:
//
//	prog, _ := core.Analyze(src, core.AnalyzeOptions{})   // parse + per-site opportunities
//	pl := plan.Default(plan.MPICHGM2005())                // or a tuned / hand-edited plan
//	out, rep, _ := core.Apply(prog, pl)                   // replay the plan onto the program
//
// Analyze parses once and discovers every MPI_ALLTOALL site's facts (pattern,
// node-loop case, partition geometry, interchange legality) from the
// analysis and transform.Check, without rewriting anything. Apply replays a
// serializable plan.Plan — per-site Decision{K, Wait, SendOrder, Interchange}
// — onto a fresh clone of the parsed AST, so a tuner can walk plan space
// without re-parsing.
//
// Apply is Canonical, then Canon.Text, then the report. Canonical decides
// every site before anything touches an AST: from the sites Analyze located
// and a per-Program cache of the transformation's verdicts it knows which
// sites a plan rewrites, how, and the plan's canonical key. Texts are
// memoized by that key, so plans differing only in knobs no site reads share
// one rewrite, and a plan that rewrites nothing returns the original without
// a clone. A rewrite locates, in its clone, only the sites it transforms
// (an interchanged one before and after its interchange), one at a time in
// program order (the nodes it rewrites are that clone's, and earlier
// rewrites move them), and holds each to its verdict; every other site is
// left as it is. What is proved about a site — safe references, interchange
// legality, the whole-slab copy mapping, tile-order independence — is proved
// once per Program and kept in its analysis.ProofMemo. Package verify never
// sees that memo: it re-parses and re-proves, which is what makes it a check
// on this one.
package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/ftn"
	"repro/internal/plan"
	"repro/internal/transform"
)

// Options names a uniform fixed-K plan. It keeps its own name only because
// benchmark/ builds its fixed plans through it; it goes with the next PR
// that edits benchmark/, where plan.Uniform(plan.Decision{K: k}) replaces it.
type Options struct {
	K int64 // tile size; 0 selects plan.DefaultK
}

// Plan returns the uniform plan at tile size K.
func (o Options) Plan() *plan.Plan { return plan.Uniform(plan.Decision{K: o.K}) }

// AnalyzeOptions configures the analysis stage.
type AnalyzeOptions struct {
	// NP is the rank count assumed during analysis; 0 means "use the
	// program's named constant np".
	NP int64
	// Oracle answers semi-automatic questions (§3.1).
	Oracle analysis.Oracle
}

// Site is one MPI_ALLTOALL site's analysis outcome: the facts a planner
// needs to choose a Decision for it. Geometry fields are the transformation's
// own check at K=1 (every legal ladder contains 1), with interchange off, and
// are zero when the check rejected the site.
type Site struct {
	Pos      ftn.Pos
	Pattern  analysis.Pattern
	NodeCase analysis.NodeLoopCase
	// Transformable reports whether the transformation can fire at K=1;
	// when false, Reason carries the rejection.
	Transformable bool
	Reason        string
	// PartitionSize is As's last-dimension extent per rank — candidate tile
	// sizes for the subset-send and indirect schedules must divide it.
	PartitionSize int64
	// TripCount is the tiled loop's trip count (0 when not numeric).
	TripCount int64
	// PerIterBytes is the message payload one tiled iteration contributes
	// (0 when not numeric) — the analytic tuner's pricing unit.
	PerIterBytes int64
	// InterchangeLegal reports the §3.5 interchange's proven legality;
	// InterchangeBlockElems estimates the contiguous elements per message
	// (excluding the factor K) the interchanged exchange would send.
	InterchangeLegal      bool
	InterchangeBlockElems int64
	Notes                 []string
}

// Key returns the site's plan key ("line:col").
func (s *Site) Key() string { return s.Pos.String() }

// Program is a parsed, analyzed program ready for repeated Apply calls.
// The AST it holds is never mutated: every rewrite transforms a fresh clone,
// and texts are memoized by canonical key so a search can revisit a candidate
// for free. Sites, too, is read-only once Analyze returns: the fingerprint
// is made from it once. Safe for concurrent Apply and Fingerprint calls.
type Program struct {
	Sites []Site

	src  string
	file *ftn.File
	opts AnalyzeOptions

	// proofs is what Analyze and every Apply so far have proved about the sites.
	proofs *analysis.ProofMemo
	// names holds every name the program unit declares or uses (nil when the
	// file has none); each check forks it instead of scanning the unit.
	names *ftn.FreshNamer

	mu       sync.Mutex
	memo     map[string]applied // rewritten texts by canonical key
	located  map[int64]*located // the sites as found at each rank count
	verdicts map[verdictKey]verdict
	locates  atomic.Int64 // sites applyPlan located in its clones

	// shape is the machine-independent text of the program's fingerprint,
	// kept by the first Fingerprint call (see there).
	shape atomic.Pointer[string]
}

type applied struct {
	src string
	err error
}

// Source returns the original (untransformed) source text.
func (p *Program) Source() string { return p.src }

// Options returns the analysis options the program was analyzed under.
func (p *Program) Options() AnalyzeOptions { return p.opts }

// Site returns the analyzed site at the given plan key, or nil.
func (p *Program) Site(key string) *Site {
	for i := range p.Sites {
		if p.Sites[i].Key() == key {
			return &p.Sites[i]
		}
	}
	return nil
}

// Analyze parses src and discovers every MPI_ALLTOALL site's opportunity
// facts. The error is non-nil only for parse failures; unanalyzable sites
// are recorded in Sites with their rejection reason.
func Analyze(src string, opts AnalyzeOptions) (*Program, error) {
	file, err := ftn.Parse(src)
	if err != nil {
		return nil, err
	}
	p := &Program{src: src, file: file, opts: opts, proofs: &analysis.ProofMemo{}}
	p.forget()
	if u := file.Program(); u != nil {
		p.names = ftn.NewFreshNamer(u)
	}

	// Rejections first, then the opportunities in program order, as Apply
	// reports them; each is checked at K=1 with interchange off (see Site).
	set := p.find(opts.NP)
	for _, re := range set.rejected {
		p.Sites = append(p.Sites, Site{Pos: re.Pos, Reason: re.Reason})
	}
	for i, op := range set.ops {
		site := Site{
			Pos: op.Call.Stmt.Pos(), Pattern: op.Pattern, NodeCase: op.NodeCase, Notes: op.Notes,
			InterchangeLegal:      op.InterchangeOK,
			InterchangeBlockElems: op.InterchangeBlockElems,
		}
		v := p.verdict(opts.NP, i, op, plan.Decision{K: 1}.Normalize(), false)
		if res := v.res; res == nil {
			site.Reason = v.reason
		} else {
			site.Transformable = true
			site.PartitionSize = res.PartitionSize
			// At K=1 every tile is one iteration of the tiled loop.
			site.TripCount = max(res.TileCount, 0)
			site.PerIterBytes = max(res.TileMsgElems*4, 0)
		}
		p.Sites = append(p.Sites, site)
	}
	return p, nil
}

// rejection is the reason a transformation error gives for its site.
func rejection(err error) string {
	if te, ok := err.(*transform.Error); ok {
		return te.Msg
	}
	return err.Error()
}

// Apply replays a plan onto the analyzed program: every transformable
// MPI_ALLTOALL site is rewritten (on a fresh AST clone) according to its
// Decision, and the rewritten source plus a report are returned.
// Untransformable sites are reported, not fatal. The error is non-nil for
// invalid plans, and for a plan some site of which the rewrite locates or
// transforms unlike the decision made for it from the original AST (an
// earlier rewrite changed how the site analyses): no text is returned then,
// rather than one its report does not describe. Texts are memoized by the
// plan's canonical key, so repeated Apply calls with equivalent plans are
// free.
func Apply(p *Program, pl *plan.Plan) (string, *Report, error) {
	cn, err := Canonical(p, pl)
	if err != nil {
		return "", nil, err
	}
	src, err := cn.Text()
	if err != nil {
		return "", nil, err
	}
	return src, cn.d.report(), nil
}

// siteKeys lists the analyzed sites' plan keys in program order.
func siteKeys(p *Program) []string {
	keys := make([]string, len(p.Sites))
	for i := range p.Sites {
		keys[i] = p.Sites[i].Key()
	}
	return keys
}

// SiteReport describes one MPI_ALLTOALL site's outcome under a plan.
type SiteReport struct {
	Pos         ftn.Pos
	Transformed bool
	// Skipped marks a site the plan declined (Decision.Skip): the site was
	// transformable but deliberately left untouched — distinct from a
	// rejection, where the transformation could not fire.
	Skipped  bool
	Pattern  analysis.Pattern
	NodeCase analysis.NodeLoopCase
	// Decision is the (normalized) plan decision applied to the site.
	Decision plan.Decision
	Result   *transform.Result
	Reason   string   // rejection reason when not transformed
	Notes    []string // analysis notes
}

// Report summarizes a whole Apply.
type Report struct {
	Sites []SiteReport
}

// TransformedCount returns the number of sites rewritten.
func (r *Report) TransformedCount() int {
	n := 0
	for _, s := range r.Sites {
		if s.Transformed {
			n++
		}
	}
	return n
}

// SkippedCount returns the number of sites the plan declined to transform.
func (r *Report) SkippedCount() int {
	n := 0
	for _, s := range r.Sites {
		if s.Skipped {
			n++
		}
	}
	return n
}

// FirstRejection returns the first rejection reason in the report, or ""
// when every site transformed. Harness code uses it to explain why a
// scenario's transformation did not fire.
func (r *Report) FirstRejection() string {
	for _, s := range r.Sites {
		if !s.Transformed {
			return s.Reason
		}
	}
	return ""
}

// AnyInterchanged reports whether any transformed site applied the §3.5
// loop interchange.
func (r *Report) AnyInterchanged() bool {
	for _, s := range r.Sites {
		if s.Transformed && s.Result != nil && s.Result.Interchanged {
			return true
		}
	}
	return false
}

// String renders a human-readable summary.
func (r *Report) String() string {
	out := fmt.Sprintf("compuniformer: %d site(s), %d transformed", len(r.Sites), r.TransformedCount())
	if n := r.SkippedCount(); n > 0 {
		out += fmt.Sprintf(", %d skipped by plan", n)
	}
	out += "\n"
	for _, s := range r.Sites {
		if s.Skipped {
			out += fmt.Sprintf("  %s: skipped by plan (%s pattern, node loop %s)\n", s.Pos, s.Pattern, s.NodeCase)
		} else if s.Transformed {
			res := s.Result
			out += fmt.Sprintf("  %s: transformed (%s pattern, node loop %s, K=%d, NP=%d, %d msgs/tile)\n",
				s.Pos, s.Pattern, s.NodeCase, res.K, res.NP, res.MessagesTile)
			if res.Interchanged {
				out += "    loop interchange applied\n"
			}
			for _, n := range res.Notes {
				out += "    " + n + "\n"
			}
		} else {
			out += fmt.Sprintf("  %s: rejected: %s\n", s.Pos, s.Reason)
		}
		for _, n := range s.Notes {
			out += "    note: " + n + "\n"
		}
	}
	return out
}

// applyPlan rewrites a clone of the program as d decided and prints it. Each
// site d transforms is located in the clone, in program order: once before
// its interchange, if it has one, and once before its rewrite. A site that
// locates or rewrites unlike its decision is an error, never a wrong report.
func (p *Program) applyPlan(d *decision) (string, error) {
	clone := ftn.CloneFile(p.file)
	aopts := p.aopts(d.np)
	names := p.names.Fork()
	// locate finds the site at pos in the clone, as the decision found it:
	// want.
	locate := func(pos ftn.Pos, want *analysis.Opportunity) (*analysis.Opportunity, error) {
		p.locates.Add(1)
		op, err := analysis.Locate(clone, pos, aopts)
		if err == nil {
			err = sameFacts(op, want)
		}
		return op, err
	}
	for i := range d.sites {
		ds := &d.sites[i]
		if ds.v.res == nil {
			continue // skipped or rejected: left as it is
		}
		pos := d.set.ops[i].Call.Stmt.Pos()
		op, err := locate(pos, d.set.ops[i])
		if err != nil {
			return "", disagree(pos, err)
		}
		if ds.swap {
			if err := transform.Interchange(op); err != nil {
				return "", disagree(pos, err)
			}
			if op, err = locate(pos, ds.op); err != nil {
				return "", disagree(pos, err)
			}
		} else {
			// The plan (gate or explicit "off") or the analysis chose the
			// subset-send fallback; transform.Apply must not see a pending
			// flag.
			op.InterchangeOK = false
		}
		decls := len(op.Unit.Decls)
		res, err := transform.Apply(op, toptions(ds.dec, d.np, names))
		if err == nil && !reflect.DeepEqual(res, ds.v.res) {
			err = fmt.Errorf("result %+v, verdict %+v", *res, *ds.v.res)
		}
		if err != nil {
			return "", disagree(pos, err)
		}
		for _, decl := range op.Unit.Decls[decls:] {
			for _, e := range decl.Entities {
				names.Take(e.Name)
			}
		}
	}
	return ftn.Print(clone), nil
}

// sameFacts returns an error when op differs from want in a fact a decision
// reads or a report shows.
func sameFacts(op, want *analysis.Opportunity) error {
	if op.Pattern != want.Pattern || op.NodeCase != want.NodeCase ||
		op.InterchangeOK != want.InterchangeOK || op.InterchangeBlockElems != want.InterchangeBlockElems ||
		!slices.Equal(op.Notes, want.Notes) {
		return fmt.Errorf("located as %s, node loop %s, interchange %v/%d, notes %q; decided as %s, node loop %s, interchange %v/%d, notes %q",
			op.Pattern, op.NodeCase, op.InterchangeOK, op.InterchangeBlockElems, op.Notes,
			want.Pattern, want.NodeCase, want.InterchangeOK, want.InterchangeBlockElems, want.Notes)
	}
	return nil
}

// disagree is the error of a site that located or rewrote unlike its
// decision.
func disagree(pos ftn.Pos, err error) error {
	return fmt.Errorf("core: site %s rewrote unlike its decision: %v", pos, err)
}

// interchangeWanted applies the plan's interchange knob to a legal
// interchange candidate: "on" takes it unconditionally, "off" never, "auto"
// weighs the message granularity (blockElems × K × 4 bytes) against the
// gate threshold.
func interchangeWanted(dec plan.Decision, op *analysis.Opportunity) bool {
	switch dec.Interchange {
	case plan.InterchangeOn:
		return true
	case plan.InterchangeOff:
		return false
	}
	min := dec.InterchangeMinBlockBytes
	if min == 0 {
		min = plan.DefaultInterchangeMinBlockBytes
	}
	return op.InterchangeBlockElems*dec.K*4 >= min
}
