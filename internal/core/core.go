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
// — onto a fresh clone of the parsed AST, memoized by the plan's canonical
// key, so a tuner can walk plan space without re-parsing.
//
// Each Apply locates the sites again in its clone, after every rewrite (the
// nodes it rewrites are that clone's, and earlier rewrites move them). What
// is proved about a site — safe references, interchange legality, the
// whole-slab copy mapping, tile-order independence — is proved once per
// Program and kept in its analysis.ProofMemo. Package verify never sees that
// memo: it re-parses and re-proves, which is what makes it a check on this one.
package core

import (
	"fmt"
	"strings"
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
// The AST it holds is never mutated: every Apply transforms a fresh clone,
// and outcomes are memoized by plan key so a search can revisit a candidate
// for free. Sites, too, is read-only once Analyze returns: the fingerprint
// is made from it once. Safe for concurrent Apply and Fingerprint calls.
type Program struct {
	Sites []Site

	src  string
	file *ftn.File
	opts AnalyzeOptions

	// proofs is what Analyze and every Apply so far have proved about the sites.
	proofs *analysis.ProofMemo

	mu   sync.Mutex
	memo map[string]applied

	// shape is the machine-independent text of the program's fingerprint,
	// kept by the first Fingerprint call (see there).
	shape atomic.Pointer[string]
}

type applied struct {
	src string
	rep *Report
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
	p := &Program{src: src, file: file, opts: opts, proofs: &analysis.ProofMemo{}, memo: map[string]applied{}}

	// Rejections first, then the opportunities in program order, as Apply
	// reports them; each is checked at K=1 with interchange off (see Site).
	ops, errs := analysis.FindOpportunities(file, analysis.Options{Oracle: opts.Oracle, NP: int(opts.NP), Proofs: p.proofs})
	for _, e := range errs {
		if re, ok := e.(*analysis.RejectionError); ok {
			p.Sites = append(p.Sites, Site{Pos: re.Pos, Reason: re.Reason})
		}
	}
	for _, op := range ops {
		site := Site{
			Pos: op.Call.Stmt.Pos(), Pattern: op.Pattern, NodeCase: op.NodeCase, Notes: op.Notes,
			InterchangeLegal:      op.InterchangeOK,
			InterchangeBlockElems: op.InterchangeBlockElems,
		}
		op.InterchangeOK = false // interchange off: the subset-send fallback
		res, err := transform.Check(op, transform.Options{K: 1, NP: opts.NP})
		if err != nil {
			site.Reason = rejection(err)
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
// Untransformable sites are reported, not fatal; the error is non-nil only
// for invalid plans. Results are memoized by the plan's canonical key, so
// repeated Apply calls with equivalent plans are free.
func Apply(p *Program, pl *plan.Plan) (string, *Report, error) {
	if err := pl.Validate(); err != nil {
		return "", nil, err
	}
	// A plan entry keyed to a site the program does not contain is a stale
	// or mistyped plan (e.g. replaying a dump against edited source); apply
	// it loudly instead of silently falling back to the default everywhere.
	for _, sp := range pl.Sites {
		if p.Site(sp.Site) == nil {
			return "", nil, fmt.Errorf("plan: site %q does not exist in the program (have %s)",
				sp.Site, strings.Join(siteKeys(p), ", "))
		}
	}
	key := pl.Key()
	p.mu.Lock()
	if r, ok := p.memo[key]; ok {
		p.mu.Unlock()
		// Memo hits (and the miss below) return a defensive copy of the
		// report: the stored one must stay pristine for later callers.
		return r.src, r.rep.clone(), r.err
	}
	p.mu.Unlock()

	clone := ftn.CloneFile(p.file)
	rep, err := applyPlan(clone, pl, p.opts, p.proofs)
	r := applied{rep: rep, err: err}
	if err == nil {
		if rep.TransformedCount() == 0 {
			// Nothing was rewritten — a skip-all plan, or a program whose
			// sites all rejected. Emit the original bytes rather than a
			// reprint of the untouched clone: the skip-all variant is then
			// byte-identical to the input, so its source hash collapses to
			// the original's and the exec variant cache hits for free.
			r.src = p.src
		} else {
			r.src = ftn.Print(clone)
		}
	}
	p.mu.Lock()
	p.memo[key] = r
	p.mu.Unlock()
	return r.src, r.rep.clone(), r.err
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

// clone returns a defensive copy of the report: Apply memoizes reports and
// hands them to concurrent callers, so sharing the stored pointer would let
// one caller's mutation race another's read. Site slices, results, and note
// slices are all copied; nested pointers in transform.Result do not exist
// (it is a flat struct plus a Notes slice).
func (r *Report) clone() *Report {
	if r == nil {
		return nil
	}
	out := &Report{Sites: make([]SiteReport, len(r.Sites))}
	copy(out.Sites, r.Sites)
	for i := range out.Sites {
		s := &out.Sites[i]
		s.Notes = append([]string(nil), s.Notes...)
		if s.Result != nil {
			res := *s.Result
			res.Notes = append([]string(nil), res.Notes...)
			s.Result = &res
		}
	}
	return out
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

// applyPlan rewrites the AST in place according to the plan: sites are
// located in file on every round, their proofs read from and added to proofs.
func applyPlan(file *ftn.File, pl *plan.Plan, opts AnalyzeOptions, proofs *analysis.ProofMemo) (*Report, error) {
	np := pl.NP
	if np == 0 {
		np = opts.NP
	}
	aopts := analysis.Options{Oracle: opts.Oracle, NP: int(np), Proofs: proofs}
	report := &Report{}

	// Sites are transformed one at a time; each transformation removes its
	// MPI_ALLTOALL, so re-running the finder converges. Rejected sites are
	// remembered (by position) so they are reported once and skipped.
	rejected := map[ftn.Pos]bool{}
	for round := 0; round < 100; round++ {
		ops, errs := analysis.FindOpportunities(file, aopts)
		for _, e := range errs {
			if re, ok := e.(*analysis.RejectionError); ok {
				if !rejected[re.Pos] {
					rejected[re.Pos] = true
					report.Sites = append(report.Sites, SiteReport{Pos: re.Pos, Reason: re.Reason})
				}
			}
		}
		var op *analysis.Opportunity
		for _, o := range ops {
			if !rejected[o.Call.Stmt.Pos()] {
				op = o
				break
			}
		}
		if op == nil {
			break
		}
		pos := op.Call.Stmt.Pos()
		dec := pl.For(pos.String())

		if dec.Skip {
			// The plan declines this site: leave the AST untouched. The
			// position is remembered like a rejection so the finder loop
			// moves past it, but the report distinguishes "skipped by plan"
			// from "transformation cannot fire".
			rejected[pos] = true
			report.Sites = append(report.Sites, SiteReport{
				Pos: pos, Skipped: true, Pattern: op.Pattern, NodeCase: op.NodeCase,
				Reason: "skipped by plan", Decision: dec, Notes: op.Notes,
			})
			continue
		}

		interchanged := false
		if op.Pattern == analysis.PatternDirect &&
			op.NodeCase == analysis.NodeLoopOutermost && op.InterchangeOK &&
			interchangeWanted(dec, op) {
			if err := transform.Interchange(op); err == nil {
				interchanged = true
				// Re-analyze: loop order (and hence the node-loop case)
				// changed.
				ops2, _ := analysis.FindOpportunities(file, aopts)
				op = nil
				for _, o := range ops2 {
					if o.Call.Stmt.Pos() == pos {
						op = o
						break
					}
				}
				if op == nil {
					rejected[pos] = true
					report.Sites = append(report.Sites, SiteReport{
						Pos: pos, Reason: "site no longer analyzable after interchange", Decision: dec,
					})
					continue
				}
			}
		}

		if !interchanged {
			// Either interchange is illegal or the plan (gate or explicit
			// "off") chose the subset-send fallback; transform.Apply must
			// not see a pending flag.
			op.InterchangeOK = false
		}
		topts := transform.Options{
			K: dec.K, NP: np,
			PerTileWait: dec.Wait == plan.WaitPerTile,
			NoStagger:   dec.SendOrder == plan.SendSequential,
		}
		res, err := transform.Apply(op, topts)
		if err != nil {
			rejected[pos] = true
			report.Sites = append(report.Sites, SiteReport{
				Pos: pos, Pattern: op.Pattern, NodeCase: op.NodeCase, Notes: op.Notes,
				Decision: dec, Reason: rejection(err),
			})
			continue
		}
		res.Interchanged = interchanged
		report.Sites = append(report.Sites, SiteReport{
			Pos: pos, Transformed: true, Pattern: op.Pattern,
			NodeCase: op.NodeCase, Result: res, Notes: op.Notes, Decision: dec,
		})
	}
	return report, nil
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
