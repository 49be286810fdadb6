// Package verify is the static verification tier: it re-proves, without
// executing anything, that a transformed program is a faithful rendering of
// the plan that produced it. The walk-engine oracle and the differential
// sweep prove variants bit-identical dynamically (hundreds of seconds for a
// full corpus); this package answers the same legality questions the paper
// answers statically (§3.5 interchange direction vectors, §3.6 tiling
// coverage, the pre-posted-receive stagger invariant) in microseconds, so
// every variant a sweep or a plan query touches can afford it.
//
// Two entry points:
//
//   - Variant is the translation validator: given the analyzed original
//     program, the plan, the transformed source, and core.Apply's report, it
//     statically re-derives every applied decision — skipped sites are
//     byte-identical subtrees, tiled+leftover bounds cover the original
//     iteration space exactly, introduced cc_* temporaries are fresh,
//     recorded interchange/stagger legality re-proves from dependence
//     direction vectors — and lints the generated MPI schedule.
//
//   - Lint is the schedule linter alone, runnable on any parsed file: every
//     nonblocking request waited, no request reuse before a wait, symmetric
//     send/receive count+dtype pairs, and deadlock-freedom of the posted
//     order under rendezvous semantics.
//
// Every finding is a Diagnostic with a machine-readable Code; an empty slice
// means the variant verified.
package verify

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/ftn"
	"repro/internal/plan"
	"repro/internal/transform"
)

// Diagnostic codes. Each distinct defect class has its own code so callers
// (and the mutation-injection self-test) can key on the machine-readable
// verdict rather than message text.
const (
	CodeParseError         = "parse-error"          // transformed source does not parse
	CodeSkipNotIdentical   = "skip-not-identical"   // a skipped site is not byte-identical
	CodeAlltoallNotRemoved = "alltoall-not-removed" // MPI_ALLTOALL count disagrees with the report
	CodeTileCoverage       = "tile-coverage"        // tiled+leftover bounds do not cover the iteration space
	CodeNameClash          = "name-clash"           // an introduced temporary captures or shadows a program name
	CodeInterchangeIllegal = "interchange-illegal"  // recorded interchange fails re-derivation
	CodeStaggerIllegal     = "stagger-illegal"      // recorded stagger fails the reorder proof
	CodeWaitMissing        = "wait-missing"         // a nonblocking request is never waited
	CodeWaitDouble         = "wait-double"          // a drained request set can be waited again
	CodeRequestReuse       = "request-reuse"        // a request slot is reused before its wait
	CodeSendrecvMismatch   = "sendrecv-mismatch"    // send and receive (count, dtype) sets disagree
	CodeDeadlockOrder      = "deadlock-order"       // posted order can deadlock under rendezvous
)

// Diagnostic is one verification finding.
type Diagnostic struct {
	// Code is the machine-readable defect class (one of the Code constants).
	Code string `json:"code"`
	// Site is the plan site key ("line:col") when the finding is
	// attributable to one MPI_ALLTOALL site.
	Site string `json:"site,omitempty"`
	// Pos locates the finding in the transformed source when known.
	Pos string `json:"pos,omitempty"`
	// Msg is the human-readable explanation.
	Msg string `json:"msg"`
}

// String renders the diagnostic for logs.
func (d Diagnostic) String() string {
	out := d.Code
	if d.Site != "" {
		out += " site " + d.Site
	}
	if d.Pos != "" {
		out += " at " + d.Pos
	}
	return out + ": " + d.Msg
}

// Summarize joins diagnostics into one line per finding.
func Summarize(diags []Diagnostic) string {
	parts := make([]string, len(diags))
	for i, d := range diags {
		parts[i] = d.String()
	}
	return strings.Join(parts, "; ")
}

// Apply is the convenience wrapper that replays a plan and verifies the
// output in one call: core.Apply followed by Variant.
func Apply(prog *core.Program, pl *plan.Plan) (string, *core.Report, []Diagnostic, error) {
	out, rep, err := core.Apply(prog, pl)
	if err != nil {
		return "", nil, nil, err
	}
	return out, rep, Variant(prog, pl, out, rep), nil
}

// Variant statically verifies one (program, plan) variant: transformed must
// be core.Apply(prog, pl)'s output and rep its report. The returned slice is
// empty when every applied decision re-proves and the generated MPI schedule
// lints clean.
func Variant(prog *core.Program, pl *plan.Plan, transformed string, rep *core.Report) []Diagnostic {
	var diags []Diagnostic
	tf, err := ftn.Parse(transformed)
	if err != nil {
		return []Diagnostic{{Code: CodeParseError, Msg: fmt.Sprintf("transformed source: %v", err)}}
	}

	if rep == nil || rep.TransformedCount() == 0 {
		// Nothing was rewritten: core.Apply's contract is to return the
		// original bytes (so the variant cache collapses onto the original's
		// hash). Anything else means a "skipped" site was touched.
		if transformed != prog.Source() {
			diags = append(diags, Diagnostic{
				Code: CodeSkipNotIdentical,
				Msg:  "no site transformed, but the output is not byte-identical to the original source",
			})
		}
		return diags
	}

	// Re-analyze the original from scratch: the validator must not trust the
	// transformer's cached facts — fresh parse, no proof memo (repolint rule 8).
	of, err := ftn.Parse(prog.Source())
	if err != nil {
		return []Diagnostic{{Code: CodeParseError, Msg: fmt.Sprintf("original source: %v", err)}}
	}
	opts := prog.Options()
	np := pl.NP
	if np == 0 {
		np = opts.NP
	}
	ops, _ := analysis.FindOpportunities(of, analysis.Options{Oracle: opts.Oracle, NP: int(np)})
	opAt := map[string]*analysis.Opportunity{}
	for _, op := range ops {
		opAt[op.Call.Stmt.Pos().String()] = op
	}

	origUnits := unitsByName(of)
	transUnits := unitsByName(tf)

	// The original MPI_ALLTOALL must be removed exactly at transformed sites
	// and preserved everywhere else.
	want := len(rep.Sites) - rep.TransformedCount()
	if got := countAlltoalls(tf); got != want {
		diags = append(diags, Diagnostic{
			Code: CodeAlltoallNotRemoved,
			Msg:  fmt.Sprintf("transformed source has %d mpi_alltoall call(s), want %d (%d of %d sites transformed)", got, want, rep.TransformedCount(), len(rep.Sites)),
		})
	}

	// Freshness: names the transformation declared must not capture, shadow,
	// or double-declare anything, per unit.
	diags = append(diags, checkFreshNames(origUnits, transUnits)...)

	// Per-site decision re-proofs.
	for i := range rep.Sites {
		sr := &rep.Sites[i]
		site := sr.Pos.String()
		op := opAt[site]
		switch {
		case sr.Skipped:
			diags = append(diags, checkSkippedSite(op, transUnits, site)...)
		case sr.Transformed:
			if op == nil {
				diags = append(diags, Diagnostic{
					Code: CodeTileCoverage, Site: site,
					Msg: "report marks the site transformed, but re-analysis of the original finds no opportunity there",
				})
				continue
			}
			res := sr.Result
			if res != nil && res.Interchanged && !op.InterchangeOK {
				diags = append(diags, Diagnostic{
					Code: CodeInterchangeIllegal, Site: site,
					Msg: "report records a loop interchange, but the dependence direction vectors do not re-prove its legality",
				})
			}
			if res != nil && res.Staggered {
				if !transform.ReorderSafe(op) {
					diags = append(diags, Diagnostic{
						Code: CodeStaggerIllegal, Site: site,
						Msg: "report records the staggered send order, but tile order independence does not re-prove",
					})
				}
				diags = append(diags, checkStaggeredStructure(op, res, transUnits, site)...)
			}
			if res != nil && !res.Staggered && !res.Interchanged {
				diags = append(diags, checkLoopAnchor(op, transUnits, site)...)
			}
		}
	}

	// Unit-wide tile-guard coverage: every generated mod-guard must fire on
	// exact tile boundaries and leave no uncovered leftover iterations.
	for _, tu := range tf.Units {
		diags = append(diags, checkTileGuards(tu)...)
	}

	// Finally, the generated MPI schedule itself.
	diags = append(diags, Lint(tf)...)
	return diags
}

// unitsByName indexes a file's units (first definition wins, matching the
// execution engines' resolution).
func unitsByName(f *ftn.File) map[string]*ftn.Unit {
	out := map[string]*ftn.Unit{}
	for _, u := range f.Units {
		if _, ok := out[u.Name]; !ok {
			out[u.Name] = u
		}
	}
	return out
}

// countAlltoalls counts mpi_alltoall call statements in the file.
func countAlltoalls(f *ftn.File) int {
	n := 0
	for _, u := range f.Units {
		ftn.Inspect(u.Body, func(s ftn.Stmt) bool {
			if cs, ok := s.(*ftn.CallStmt); ok && cs.Name == "mpi_alltoall" {
				n++
			}
			return true
		})
	}
	return n
}

// checkFreshNames verifies that every name the transformation introduced is
// fresh in its unit: not declared twice, and not capturing a name the
// original unit already used (declared or implicitly typed).
func checkFreshNames(orig, trans map[string]*ftn.Unit) []Diagnostic {
	var diags []Diagnostic
	for name, tu := range trans {
		ou := orig[name]
		if ou == nil {
			continue // the transformation never adds units
		}
		origDecls := declCounts(ou)
		origUsed := usedIdents(ou)
		for dname, n := range declCounts(tu) {
			if n > 1 && n > origDecls[dname] {
				diags = append(diags, Diagnostic{
					Code: CodeNameClash,
					Msg:  fmt.Sprintf("unit %s declares %q %d times after transformation", name, dname, n),
				})
				continue
			}
			if origDecls[dname] == 0 && origUsed[dname] {
				diags = append(diags, Diagnostic{
					Code: CodeNameClash,
					Msg:  fmt.Sprintf("unit %s: introduced name %q captures a name the original program uses", name, dname),
				})
			}
		}
	}
	return diags
}

// declCounts counts declared entity names in a unit.
func declCounts(u *ftn.Unit) map[string]int {
	out := map[string]int{}
	for _, d := range u.Decls {
		for _, e := range d.Entities {
			out[e.Name]++
		}
	}
	return out
}

// usedIdents collects every name the unit touches: parameters, declared
// entities, loop variables, and every identifier (including array names) in
// any expression.
func usedIdents(u *ftn.Unit) map[string]bool {
	out := map[string]bool{}
	for _, p := range u.Params {
		out[p] = true
	}
	for _, d := range u.Decls {
		for _, e := range d.Entities {
			out[e.Name] = true
			for _, dim := range d.DimsOf(e) {
				for _, b := range []ftn.Expr{dim.Lo, dim.Hi} {
					if b != nil {
						for n := range ftn.IdentsIn(b) {
							out[n] = true
						}
					}
				}
			}
		}
	}
	ftn.Inspect(u.Body, func(s ftn.Stmt) bool {
		if do, ok := s.(*ftn.DoStmt); ok {
			out[do.Var] = true
		}
		for _, e := range ftn.StmtExprs(s) {
			for n := range ftn.IdentsIn(e) {
				out[n] = true
			}
		}
		return true
	})
	return out
}

// checkSkippedSite verifies a plan-skipped site survived byte-identically.
// Positions shift when sibling sites are transformed (inserted code moves
// every later line), so the match is structural: the transformed unit must
// still contain a DO printing exactly like the site's finalizing loop and an
// MPI_ALLTOALL carrying the site's exact argument list.
func checkSkippedSite(op *analysis.Opportunity, trans map[string]*ftn.Unit, site string) []Diagnostic {
	if op == nil {
		return nil // a rejected (never analyzable) site has nothing to compare
	}
	tu := trans[op.Unit.Name]
	if tu == nil {
		return []Diagnostic{{Code: CodeSkipNotIdentical, Site: site,
			Msg: fmt.Sprintf("unit %s missing from the transformed source", op.Unit.Name)}}
	}
	var diags []Diagnostic
	want := ftn.PrintStmts([]ftn.Stmt{op.L}, 0)
	kept := false
	ftn.Inspect(tu.Body, func(s ftn.Stmt) bool {
		if do, ok := s.(*ftn.DoStmt); ok && do.Var == op.L.Var {
			if ftn.PrintStmts([]ftn.Stmt{do}, 0) == want {
				kept = true
			}
		}
		return !kept
	})
	if !kept {
		diags = append(diags, Diagnostic{Code: CodeSkipNotIdentical, Site: site,
			Msg: "skipped site's finalizing loop is missing or not identical in the transformed source"})
	}
	callKept := false
	ftn.Inspect(tu.Body, func(s ftn.Stmt) bool {
		if cs, ok := s.(*ftn.CallStmt); ok && cs.Name == "mpi_alltoall" && equalArgs(cs.Args, op.Call.Stmt.Args) {
			callKept = true
		}
		return !callKept
	})
	if !callKept {
		diags = append(diags, Diagnostic{Code: CodeSkipNotIdentical, Site: site,
			Msg: "skipped site's mpi_alltoall call is missing or its arguments changed"})
	}
	return diags
}

// checkLoopAnchor ties a transformed (non-staggered, non-interchanged)
// site's loop back to the original iteration space: the tiled DO keeps its
// variable and affinely-equal bounds, so the tiling covered exactly the
// original range.
func checkLoopAnchor(op *analysis.Opportunity, trans map[string]*ftn.Unit, site string) []Diagnostic {
	if op == nil {
		return nil
	}
	tu := trans[op.Unit.Name]
	if tu == nil {
		return nil
	}
	// Positions shift under insertion, so the anchor is structural: some DO
	// over the original loop variable must keep affinely-equal bounds (the
	// guarded subset-send schedules tile in place, preserving the header).
	env := &dep.Env{LoopVars: map[string]bool{}, Consts: op.Consts}
	loWant, ok1 := dep.FromExpr(op.L.Lo, env)
	hiWant, ok2 := dep.FromExpr(op.L.Hi, env)
	if !ok1 || !ok2 {
		return nil // non-affine original bounds carry no provable anchor
	}
	anchored := false
	ftn.Inspect(tu.Body, func(s ftn.Stmt) bool {
		do, ok := s.(*ftn.DoStmt)
		if !ok || do.Var != op.L.Var {
			return !anchored
		}
		lo, ok1 := dep.FromExpr(do.Lo, env)
		hi, ok2 := dep.FromExpr(do.Hi, env)
		if ok1 && ok2 && lo.Equal(loWant) && hi.Equal(hiWant) {
			anchored = true
		}
		return !anchored
	})
	if !anchored {
		return []Diagnostic{{Code: CodeTileCoverage, Site: site,
			Msg: fmt.Sprintf("no loop over %s keeps the original bounds [%s, %s] — the tiled loop no longer spans the original iteration space",
				op.L.Var, ftn.ExprString(op.L.Lo), ftn.ExprString(op.L.Hi))}}
	}
	return nil
}

func equalArgs(a, b []ftn.Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !ftn.EqualExpr(a[i], b[i]) {
			return false
		}
	}
	return true
}
