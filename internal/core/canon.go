package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/ftn"
	"repro/internal/plan"
	"repro/internal/transform"
)

// Canon is a plan's canonical form on one program: what Apply will do, known
// without applying it.
type Canon struct {
	// Key is equal for two plans exactly when Apply gives them byte-identical
	// texts. A transformed site's token resolves the interchange knob to
	// whether the site is interchanged, drops the auto gate's threshold, and
	// keeps only the wait placement and send order its schedule reads. Every
	// site the plan does not transform is left as it is, not interchanged
	// either, and reads as skipped; a plan that rewrites nothing has the one
	// key "skip".
	Key string
	// Transformed counts the sites the plan rewrites. The plan leaves a site
	// untransformed that it does not skip exactly when Transformed is less
	// than the program's sites less the ones it skips.
	Transformed int

	d *decision
}

// Canonical returns the plan's canonical form on p. The error is non-nil
// only for invalid plans, which Apply rejects too; a plan Canonical accepts
// fails Apply only when a rewrite disagrees with its decision (see Apply).
func Canonical(p *Program, pl *plan.Plan) (Canon, error) {
	if err := pl.Validate(); err != nil {
		return Canon{}, err
	}
	// A plan entry keyed to a site the program does not contain is a stale
	// or mistyped plan (e.g. replaying a dump against edited source); apply
	// it loudly instead of silently falling back to the default everywhere.
	for _, sp := range pl.Sites {
		if p.Site(sp.Site) == nil {
			return Canon{}, fmt.Errorf("plan: site %q does not exist in the program (have %s)",
				sp.Site, strings.Join(siteKeys(p), ", "))
		}
	}
	np := pl.NP
	if np == 0 {
		np = p.opts.NP
	}
	set := p.find(np)
	d := &decision{p: p, np: np, set: set, sites: make([]decidedSite, len(set.ops))}
	cn := Canon{d: d}
	key := strconv.AppendInt([]byte("np="), np, 10)
	for i, op := range set.ops {
		ds := &d.sites[i]
		ds.dec, ds.op = pl.For(set.keys[i]), op
		key = append(key, ';')
		if ds.dec.Skip {
			key = append(key, "skip"...)
			continue
		}
		if op.Pattern == analysis.PatternDirect && op.NodeCase == analysis.NodeLoopOutermost &&
			op.InterchangeOK && interchangeWanted(ds.dec, op) {
			if sw := p.swap(np, set, i); sw.ok {
				ds.swap, ds.op = true, sw.op
			}
		}
		if ds.op != nil {
			ds.v = p.verdict(np, i, ds.op, ds.dec, ds.swap)
		}
		if ds.v.res == nil {
			key = append(key, "skip"...)
			continue
		}
		cn.Transformed++
		key = appendRead(key, ds.v.read, ds.swap)
	}
	cn.Key = "skip"
	if cn.Transformed > 0 {
		cn.Key = string(key)
	}
	return cn, nil
}

// Text returns the text Apply returns for the plan, and Apply's error when a
// rewrite disagrees with the decision, through the same memo of texts by
// canonical key; it builds no report.
func (c Canon) Text() (string, error) {
	p := c.d.p
	if c.Transformed == 0 {
		// Nothing is rewritten — a skip-all plan, or a program whose sites
		// all reject. The original bytes, not a reprint of an untouched
		// clone: the skip-all variant is then byte-identical to the input,
		// so its source hash collapses to the original's and the exec
		// variant cache hits for free.
		return p.src, nil
	}
	p.mu.Lock()
	r, ok := p.memo[c.Key]
	p.mu.Unlock()
	if !ok {
		r.src, r.err = p.applyPlan(c.d)
		p.mu.Lock()
		p.memo[c.Key] = r
		p.mu.Unlock()
	}
	return r.src, r.err
}

// located is the finder's outcome on the original AST at one rank count:
// what every plan carrying that count is decided from.
type located struct {
	rejected []*analysis.RejectionError // in finder order
	ops      []*analysis.Opportunity    // in program order
	keys     []string                   // ops' plan keys
	swapped  []*swapped                 // per op, made on first need (under Program.mu)
}

// swapped is one site's §3.5 interchange, made once in a clone of its own.
type swapped struct {
	ok bool                  // Interchange swapped the nest's headers
	op *analysis.Opportunity // the site analysed again after the swap; nil if it no longer is one
}

// verdictKey addresses the transformation's verdict on one located site.
type verdictKey struct {
	np                  int64
	site                int
	k                   int64
	perTile, sequential bool
	swap                bool
}

// verdict is transform.Check's answer: the result and the options the
// schedule reads, or the rejection.
type verdict struct {
	res    *transform.Result
	read   transform.Options
	reason string
}

// decision is a plan decided on a program, site by site.
type decision struct {
	p     *Program
	np    int64
	set   *located
	sites []decidedSite // per op of set
}

type decidedSite struct {
	dec  plan.Decision         // the plan's normalized decision
	op   *analysis.Opportunity // what the report reads: the swapped op when swapped; nil if it no longer analyses
	swap bool
	v    verdict // zero when skipped or no longer analysable
}

// toptions are the transformation options of decision dec at rank count np,
// its fresh names forked from names.
func toptions(dec plan.Decision, np int64, names *ftn.FreshNamer) transform.Options {
	return transform.Options{
		K: dec.K, NP: np, Names: names,
		PerTileWait: dec.Wait == plan.WaitPerTile,
		NoStagger:   dec.SendOrder == plan.SendSequential,
	}
}

// forget drops everything p derived from its proofs: texts, located sites
// and verdicts.
func (p *Program) forget() {
	p.memo = map[string]applied{}
	p.located = map[int64]*located{}
	p.verdicts = map[verdictKey]verdict{}
}

// aopts are the analysis options at rank count np.
func (p *Program) aopts(np int64) analysis.Options {
	return analysis.Options{Oracle: p.opts.Oracle, NP: int(np), Proofs: p.proofs}
}

// find returns the sites as found at rank count np, finding them once.
func (p *Program) find(np int64) *located {
	p.mu.Lock()
	set := p.located[np]
	p.mu.Unlock()
	if set != nil {
		return set
	}
	ops, errs := analysis.FindOpportunities(p.file, p.aopts(np))
	set = &located{ops: ops, swapped: make([]*swapped, len(ops))}
	for _, e := range errs {
		if re, ok := e.(*analysis.RejectionError); ok {
			set.rejected = append(set.rejected, re)
		}
	}
	for _, op := range ops {
		set.keys = append(set.keys, op.Call.Stmt.Pos().String())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev := p.located[np]; prev != nil {
		return prev
	}
	p.located[np] = set
	return set
}

// swap returns op i of set as the §3.5 interchange leaves it, swapping it
// once in a clone of its own.
func (p *Program) swap(np int64, set *located, i int) *swapped {
	p.mu.Lock()
	sw := set.swapped[i]
	p.mu.Unlock()
	if sw != nil {
		return sw
	}
	clone := ftn.CloneFile(p.file)
	pos := set.ops[i].Call.Stmt.Pos()
	sw = &swapped{}
	if op, err := analysis.Locate(clone, pos, p.aopts(np)); err == nil && transform.Interchange(op) == nil {
		sw.ok = true
		sw.op, _ = analysis.Locate(clone, pos, p.aopts(np))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev := set.swapped[i]; prev != nil {
		return prev
	}
	set.swapped[i] = sw
	return sw
}

// verdict returns the transformation's verdict on op, site i at rank count
// np (op is the site as located, or as swapped when swap), under dec's tile
// size, wait placement and send order. Verdicts are facts about the original
// site, so each is derived once per Program.
func (p *Program) verdict(np int64, i int, op *analysis.Opportunity, dec plan.Decision, swap bool) verdict {
	k := verdictKey{np: np, site: i, k: dec.K, perTile: dec.Wait == plan.WaitPerTile,
		sequential: dec.SendOrder == plan.SendSequential, swap: swap}
	p.mu.Lock()
	v, ok := p.verdicts[k]
	p.mu.Unlock()
	if ok {
		return v
	}
	o := *op
	if !swap {
		o.InterchangeOK = false // interchange off: the subset-send fallback
	}
	res, read, err := transform.Check(&o, toptions(dec, np, p.names))
	if err != nil {
		v.reason = rejection(err)
	} else {
		v.res, v.read = res, read
	}
	p.mu.Lock()
	p.verdicts[k] = v
	p.mu.Unlock()
	return v
}

// appendRead appends a transformed site's token: the options its schedule
// reads and whether it is interchanged.
func appendRead(key []byte, r transform.Options, swap bool) []byte {
	key = append(key, "k="...)
	key = strconv.AppendInt(key, r.K, 10)
	key = append(key, ",w="...)
	key = strconv.AppendBool(key, r.PerTileWait)
	key = append(key, ",q="...)
	key = strconv.AppendBool(key, r.NoStagger)
	key = append(key, ",i="...)
	return strconv.AppendBool(key, swap)
}

// report is the decision's report, built afresh for its caller: finder
// rejections first, then the located sites in program order.
func (d *decision) report() *Report {
	rep := &Report{Sites: make([]SiteReport, 0, len(d.set.rejected)+len(d.sites))}
	for _, re := range d.set.rejected {
		rep.Sites = append(rep.Sites, SiteReport{Pos: re.Pos, Reason: re.Reason})
	}
	for i := range d.sites {
		ds := &d.sites[i]
		sr := SiteReport{Pos: d.set.ops[i].Call.Stmt.Pos(), Decision: ds.dec}
		if op := ds.op; op != nil {
			sr.Pattern, sr.NodeCase = op.Pattern, op.NodeCase
			sr.Notes = append([]string(nil), op.Notes...)
		}
		switch {
		case ds.dec.Skip:
			sr.Skipped, sr.Reason = true, "skipped by plan"
		case ds.op == nil:
			sr.Reason = "site no longer analyzable after interchange"
		case ds.v.res == nil:
			sr.Reason = ds.v.reason
		default:
			res := *ds.v.res
			res.Notes = append([]string(nil), res.Notes...)
			res.Interchanged = ds.swap
			sr.Transformed, sr.Result = true, &res
		}
		rep.Sites = append(rep.Sites, sr)
	}
	return rep
}
