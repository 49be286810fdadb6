package core_test

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ftn"
	"repro/internal/plan"
	xform "repro/internal/transform"
)

// roundLoopApply is how Apply used to rewrite, kept as the reference the
// decided rewrite must reproduce: parse the source afresh, then run the
// finder over the whole file every round, transform the first site not yet
// reported, and stop when a round finds none. A site is interchanged in a
// clone of the file, which replaces the file only when the site then
// transforms. Nothing is memoised: no proofs,
// no verdicts, no names.
func roundLoopApply(p *core.Program, pl *plan.Plan) (string, *core.Report, error) {
	if err := pl.Validate(); err != nil {
		return "", nil, err
	}
	file := ftn.MustParse(p.Source())
	np := pl.NP
	if np == 0 {
		np = p.Options().NP
	}
	aopts := analysis.Options{Oracle: p.Options().Oracle, NP: int(np)}
	report := &core.Report{}
	rejected := map[ftn.Pos]bool{}
	for round := 0; round < 100; round++ {
		ops, errs := analysis.FindOpportunities(file, aopts)
		for _, e := range errs {
			if re, ok := e.(*analysis.RejectionError); ok {
				if !rejected[re.Pos] {
					rejected[re.Pos] = true
					report.Sites = append(report.Sites, core.SiteReport{Pos: re.Pos, Reason: re.Reason})
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
			rejected[pos] = true
			report.Sites = append(report.Sites, core.SiteReport{
				Pos: pos, Skipped: true, Pattern: op.Pattern, NodeCase: op.NodeCase,
				Reason: "skipped by plan", Decision: dec, Notes: op.Notes,
			})
			continue
		}
		// The interchange is made in a clone, kept only when the site then
		// transforms: a site that rejects is left as it is.
		interchanged, work := false, file
		if op.Pattern == analysis.PatternDirect &&
			op.NodeCase == analysis.NodeLoopOutermost && op.InterchangeOK &&
			referenceInterchangeWanted(dec, op) {
			clone := ftn.CloneFile(file)
			if sw := opAt(clone, aopts, pos); sw != nil && xform.Interchange(sw) == nil {
				interchanged, work = true, clone
				if op = opAt(clone, aopts, pos); op == nil {
					rejected[pos] = true
					report.Sites = append(report.Sites, core.SiteReport{
						Pos: pos, Reason: "site no longer analyzable after interchange", Decision: dec,
					})
					continue
				}
			}
		}
		if !interchanged {
			op.InterchangeOK = false
		}
		topts := xform.Options{
			K: dec.K, NP: np,
			PerTileWait: dec.Wait == plan.WaitPerTile,
			NoStagger:   dec.SendOrder == plan.SendSequential,
		}
		res, err := xform.Apply(op, topts)
		if err != nil {
			rejected[pos] = true
			reason := err.Error()
			if te, ok := err.(*xform.Error); ok {
				reason = te.Msg
			}
			report.Sites = append(report.Sites, core.SiteReport{
				Pos: pos, Pattern: op.Pattern, NodeCase: op.NodeCase, Notes: op.Notes,
				Decision: dec, Reason: reason,
			})
			continue
		}
		file = work
		res.Interchanged = interchanged
		report.Sites = append(report.Sites, core.SiteReport{
			Pos: pos, Transformed: true, Pattern: op.Pattern,
			NodeCase: op.NodeCase, Result: res, Notes: op.Notes, Decision: dec,
		})
	}
	if report.TransformedCount() == 0 {
		return p.Source(), report, nil
	}
	return ftn.Print(file), report, nil
}

// opAt is the site the finder finds at pos in file, or nil.
func opAt(file *ftn.File, aopts analysis.Options, pos ftn.Pos) *analysis.Opportunity {
	ops, _ := analysis.FindOpportunities(file, aopts)
	for _, o := range ops {
		if o.Call.Stmt.Pos() == pos {
			return o
		}
	}
	return nil
}

func referenceInterchangeWanted(dec plan.Decision, op *analysis.Opportunity) bool {
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

// sameAsRoundLoop holds one Apply to the reference: the same text, the same
// report field for field (notes and results included; nil and empty note
// lists alike), the same error.
func sameAsRoundLoop(t testing.TB, what string, p *core.Program, pl *plan.Plan) (string, *core.Report) {
	t.Helper()
	out, rep, err := core.Apply(p, pl)
	wantOut, wantRep, wantErr := roundLoopApply(p, pl)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s plan %s: error %v, the round loop's %v", what, pl.Key(), err, wantErr)
	}
	if err != nil {
		return "", nil
	}
	if out != wantOut {
		t.Fatalf("%s plan %s: the text differs from the round loop's", what, pl.Key())
	}
	if !reflect.DeepEqual(normalizedReport(rep), normalizedReport(wantRep)) {
		t.Fatalf("%s plan %s: report\n%s\nthe round loop's\n%s", what, pl.Key(), rep, wantRep)
	}
	return out, rep
}

// normalizedReport makes empty note lists nil, so DeepEqual compares content.
func normalizedReport(r *core.Report) *core.Report {
	out := &core.Report{Sites: append([]core.SiteReport(nil), r.Sites...)}
	for i := range out.Sites {
		s := &out.Sites[i]
		if len(s.Notes) == 0 {
			s.Notes = nil
		}
		if s.Result != nil {
			res := *s.Result
			if len(res.Notes) == 0 {
				res.Notes = nil
			}
			s.Result = &res
		}
	}
	return out
}
