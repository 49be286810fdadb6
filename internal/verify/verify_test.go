package verify_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ftn"
	"repro/internal/plan"
	"repro/internal/transform"
	"repro/internal/verify"
	"repro/internal/workload"
)

// variant applies a plan and returns everything the validator consumes.
func variant(t *testing.T, src string, pl *plan.Plan) (*core.Program, string, *core.Report) {
	t.Helper()
	prog, err := core.Analyze(src, core.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	out, rep, err := core.Apply(prog, pl)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	return prog, out, rep
}

// knobPlans is the per-site plan-space slice the clean sweep exercises on
// top of the fixed decision: every wait/send-order/interchange knob.
func knobPlans(k int64) []*plan.Plan {
	mk := func(d plan.Decision) *plan.Plan { return &plan.Plan{Schema: plan.Schema, Default: d} }
	return []*plan.Plan{
		mk(plan.Decision{K: k}),
		mk(plan.Decision{K: k, Wait: plan.WaitPerTile}),
		mk(plan.Decision{K: k, SendOrder: plan.SendSequential}),
		mk(plan.Decision{K: k, Interchange: plan.InterchangeOff}),
		mk(plan.Decision{K: k, Interchange: plan.InterchangeOn}),
		mk(plan.Decision{Skip: true}),
	}
}

// TestCorpusClean is the clean half of the mutation-injection proof: every
// (program, plan) variant across the full generated corpus and the whole
// knob space must verify with zero findings.
func TestCorpusClean(t *testing.T) {
	scenarios := workload.GenerateScenarios(workload.GenOptions{})
	if len(scenarios) == 0 {
		t.Fatal("empty corpus")
	}
	if testing.Short() {
		scenarios = scenarios[:8]
	}
	checked := 0
	for _, sc := range scenarios {
		for _, pl := range knobPlans(sc.K) {
			prog, out, rep := variant(t, sc.Source, pl)
			if diags := verify.Variant(prog, pl, out, rep); len(diags) != 0 {
				t.Errorf("%s (plan %+v): %s", sc.Name, pl.Default, verify.Summarize(diags))
			}
			checked++
		}
	}
	t.Logf("verified %d variants clean across %d scenarios", checked, len(scenarios))
}

// pickScenario returns the first scenario whose fixed-plan variant satisfies
// the predicate (the predicate sees the analyzed program, the plan, the
// transformed source, and the report).
func pickScenario(t *testing.T, pred func(prog *core.Program, out string, rep *core.Report) bool) (workload.Scenario, *plan.Plan, *core.Program, string, *core.Report) {
	t.Helper()
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		pl := plan.Uniform(plan.Decision{K: sc.K})
		prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			continue
		}
		out, rep, err := core.Apply(prog, pl)
		if err != nil || rep.TransformedCount() == 0 {
			continue
		}
		if pred(prog, out, rep) {
			return sc, pl, prog, out, rep
		}
	}
	t.Fatal("no corpus scenario matches the mutation's precondition")
	return workload.Scenario{}, nil, nil, "", nil
}

// mutateAST parses a transformed source, rewrites it, and prints it back.
func mutateAST(t *testing.T, src string, fn func(f *ftn.File) bool) string {
	t.Helper()
	f, err := ftn.Parse(src)
	if err != nil {
		t.Fatalf("parse transformed: %v", err)
	}
	if !fn(f) {
		t.Fatal("mutation found no injection point")
	}
	return ftn.Print(f)
}

// mapLists applies fn to every statement list of a body, recursively,
// replacing each list with fn's result.
func mapLists(list []ftn.Stmt, fn func([]ftn.Stmt) []ftn.Stmt) []ftn.Stmt {
	out := fn(list)
	for _, s := range out {
		switch s := s.(type) {
		case *ftn.DoStmt:
			s.Body = mapLists(s.Body, fn)
		case *ftn.IfStmt:
			s.Then = mapLists(s.Then, fn)
			s.Else = mapLists(s.Else, fn)
		}
	}
	return out
}

// isDrainBlock matches the canonical generated drain:
// if (nreq > 0) then / call mpi_waitall(...) / nreq = 0 / endif.
func isDrainBlock(s ftn.Stmt) (*ftn.IfStmt, *ftn.CallStmt, bool) {
	ifs, ok := s.(*ftn.IfStmt)
	if !ok {
		return nil, nil, false
	}
	for _, ts := range ifs.Then {
		if cs, ok := ts.(*ftn.CallStmt); ok && cs.Name == "mpi_waitall" {
			return ifs, cs, true
		}
	}
	return nil, nil, false
}

// codesOf collects the distinct diagnostic codes.
func codesOf(diags []verify.Diagnostic) map[string]bool {
	out := map[string]bool{}
	for _, d := range diags {
		out[d.Code] = true
	}
	return out
}

// cloneReportFlipping deep-copies a report, applying fn to each site's
// transform result copy.
func cloneReportFlipping(rep *core.Report, fn func(i int, sr *core.SiteReport)) *core.Report {
	out := &core.Report{Sites: append([]core.SiteReport(nil), rep.Sites...)}
	for i := range out.Sites {
		if out.Sites[i].Result != nil {
			r := *out.Sites[i].Result
			out.Sites[i].Result = &r
		}
		fn(i, &out.Sites[i])
	}
	return out
}

// TestMutationCatalog is the detection-power proof: each entry injects one
// distinct defect class into an otherwise-verified variant and asserts the
// validator reports the matching machine-readable code.
func TestMutationCatalog(t *testing.T) {
	anyFixed := func(*core.Program, string, *core.Report) bool { return true }

	cases := []struct {
		name string
		code string
		run  func(t *testing.T) []verify.Diagnostic
	}{
		{
			// Drop the deferred drain: requests outlive the unit.
			name: "drop-wait",
			code: verify.CodeWaitMissing,
			run: func(t *testing.T) []verify.Diagnostic {
				_, pl, prog, out, rep := pickScenario(t, anyFixed)
				mut := mutateAST(t, out, func(f *ftn.File) bool {
					hit := false
					for _, u := range f.Units {
						u.Body = mapLists(u.Body, func(list []ftn.Stmt) []ftn.Stmt {
							for i := len(list) - 1; i >= 0; i-- {
								if _, _, ok := isDrainBlock(list[i]); ok && !hit {
									hit = true
									return append(append([]ftn.Stmt{}, list[:i]...), list[i+1:]...)
								}
							}
							return list
						})
					}
					return hit
				})
				return verify.Variant(prog, pl, mut, rep)
			},
		},
		{
			// A second, unguarded waitall after the drain: the request set
			// is already empty.
			name: "double-wait",
			code: verify.CodeWaitDouble,
			run: func(t *testing.T) []verify.Diagnostic {
				_, pl, prog, out, rep := pickScenario(t, anyFixed)
				mut := mutateAST(t, out, func(f *ftn.File) bool {
					hit := false
					for _, u := range f.Units {
						u.Body = mapLists(u.Body, func(list []ftn.Stmt) []ftn.Stmt {
							for i := len(list) - 1; i >= 0; i-- {
								if _, wa, ok := isDrainBlock(list[i]); ok && !hit {
									hit = true
									dup := &ftn.CallStmt{Name: "mpi_waitall", Args: cloneExprs(wa.Args)}
									out := append([]ftn.Stmt{}, list[:i+1]...)
									out = append(out, dup)
									return append(out, list[i+1:]...)
								}
							}
							return list
						})
					}
					return hit
				})
				return verify.Variant(prog, pl, mut, rep)
			},
		},
		{
			// Reset the request counter while posts are outstanding: their
			// slots are reused before any wait.
			name: "counter-reset-reuse",
			code: verify.CodeRequestReuse,
			run: func(t *testing.T) []verify.Diagnostic {
				_, pl, prog, out, rep := pickScenario(t, anyFixed)
				mut := mutateAST(t, out, func(f *ftn.File) bool {
					hit := false
					for _, u := range f.Units {
						u.Body = mapLists(u.Body, func(list []ftn.Stmt) []ftn.Stmt {
							for i := len(list) - 1; i >= 0; i-- {
								ifs, wa, ok := isDrainBlock(list[i])
								_ = ifs
								if ok && !hit {
									hit = true
									counter := wa.Args[0].(*ftn.Ident).Name
									reset := &ftn.AssignStmt{LHS: &ftn.Ident{Name: counter}, RHS: &ftn.IntLit{Value: 0}}
									out := append([]ftn.Stmt{}, list[:i]...)
									out = append(out, reset)
									return append(out, list[i:]...)
								}
							}
							return list
						})
					}
					return hit
				})
				return verify.Variant(prog, pl, mut, rep)
			},
		},
		{
			// Shift a tile-end guard off the tile boundary: coverage breaks.
			name: "guard-off-by-one",
			code: verify.CodeTileCoverage,
			run: func(t *testing.T) []verify.Diagnostic {
				// The staggered schedule restructures the loop instead of
				// guarding it, so require a variant that carries a mod-guard.
				_, pl, prog, out, rep := pickScenario(t, func(_ *core.Program, out string, _ *core.Report) bool {
					return hasModGuard(out)
				})
				mut := mutateAST(t, out, func(f *ftn.File) bool {
					hit := false
					var bump func(e ftn.Expr)
					bump = func(e ftn.Expr) {
						bin, ok := e.(*ftn.Binary)
						if !ok || hit {
							return
						}
						if ref, ok := bin.X.(*ftn.Ref); ok && ref.Name == "mod" && len(ref.Args) == 2 && bin.Op == "==" {
							ref.Args[0] = ftn.Add(ref.Args[0], ftn.Int(1))
							hit = true
						}
					}
					for _, u := range f.Units {
						ftn.Inspect(u.Body, func(s ftn.Stmt) bool {
							if ifs, ok := s.(*ftn.IfStmt); ok {
								bump(ifs.Cond)
							}
							return !hit
						})
					}
					return hit
				})
				return verify.Variant(prog, pl, mut, rep)
			},
		},
		{
			// Off-by-one leftover lower bound: the leftover block skips (or
			// repeats) an iteration whole tiles missed.
			name: "leftover-off-by-one",
			code: verify.CodeTileCoverage,
			run: func(t *testing.T) []verify.Diagnostic {
				// A leftover block that is dead at runtime (trip divisible by
				// K) is proven unreachable before its bounds are inspected, so
				// require a variant whose leftover actually executes.
				_, pl, prog, out, rep := pickScenario(t, func(_ *core.Program, out string, rep *core.Report) bool {
					if !strings.Contains(out, "cc_rem") {
						return false
					}
					for i := range rep.Sites {
						if r := rep.Sites[i].Result; r != nil && r.Leftover > 0 {
							return true
						}
					}
					return false
				})
				mut := mutateAST(t, out, func(f *ftn.File) bool {
					hit := false
					for _, u := range f.Units {
						ftn.Inspect(u.Body, func(s ftn.Stmt) bool {
							ifs, ok := s.(*ftn.IfStmt)
							if !ok || hit {
								return !hit
							}
							bin, ok := ifs.Cond.(*ftn.Binary)
							if !ok || bin.Op != ">" {
								return true
							}
							id, ok := bin.X.(*ftn.Ident)
							if !ok || !strings.HasPrefix(id.Name, "cc_rem") {
								return true
							}
							for _, ts := range ifs.Then {
								if as, ok := ts.(*ftn.AssignStmt); ok {
									if _, ok := as.LHS.(*ftn.Ident); ok {
										as.RHS = ftn.Add(as.RHS, ftn.Int(1))
										hit = true
										break
									}
								}
							}
							return !hit
						})
					}
					return hit
				})
				return verify.Variant(prog, pl, mut, rep)
			},
		},
		{
			// Rename an introduced cc_* temporary onto a name the original
			// program already owns.
			name: "clashing-temp-name",
			code: verify.CodeNameClash,
			run: func(t *testing.T) []verify.Diagnostic {
				_, pl, prog, out, rep := pickScenario(t, anyFixed)
				// Steal the first declared name of the original program.
				of, err := ftn.Parse(prog.Source())
				if err != nil {
					t.Fatal(err)
				}
				stolen := ""
				for _, u := range of.Units {
					for _, d := range u.Decls {
						for _, e := range d.Entities {
							stolen = e.Name
							break
						}
						if stolen != "" {
							break
						}
					}
				}
				if stolen == "" {
					t.Fatal("original program declares nothing to clash with")
				}
				mut := mutateAST(t, out, func(f *ftn.File) bool {
					for _, u := range f.Units {
						for _, d := range u.Decls {
							for i := range d.Entities {
								if strings.HasPrefix(d.Entities[i].Name, "cc_") {
									d.Entities[i].Name = stolen
									return true
								}
							}
						}
					}
					return false
				})
				return verify.Variant(prog, pl, mut, rep)
			},
		},
		{
			// Report an interchange on a site whose direction vectors do not
			// prove it legal.
			name: "illegal-interchange",
			code: verify.CodeInterchangeIllegal,
			run: func(t *testing.T) []verify.Diagnostic {
				_, pl, prog, out, rep := pickScenario(t, func(prog *core.Program, _ string, rep *core.Report) bool {
					for i := range rep.Sites {
						sr := &rep.Sites[i]
						if sr.Transformed && sr.Result != nil && !sr.Result.Interchanged && !prog.Site(sr.Pos.String()).InterchangeLegal {
							return true
						}
					}
					return false
				})
				lie := cloneReportFlipping(rep, func(i int, sr *core.SiteReport) {
					if sr.Transformed && sr.Result != nil && !prog.Site(sr.Pos.String()).InterchangeLegal {
						sr.Result.Interchanged = true
					}
				})
				return verify.Variant(prog, pl, out, lie)
			},
		},
		{
			// Report the staggered order on a site whose tile-order
			// independence does not re-prove.
			name: "illegal-stagger",
			code: verify.CodeStaggerIllegal,
			run: func(t *testing.T) []verify.Diagnostic {
				_, pl, prog, out, rep := pickScenario(t, func(prog *core.Program, _ string, rep *core.Report) bool {
					ops := opsBySite(t, prog)
					for i := range rep.Sites {
						sr := &rep.Sites[i]
						op := ops[sr.Pos.String()]
						if sr.Transformed && sr.Result != nil && !sr.Result.Staggered &&
							op != nil && !transform.ReorderSafe(op) {
							return true
						}
					}
					return false
				})
				ops := opsBySite(t, prog)
				lie := cloneReportFlipping(rep, func(i int, sr *core.SiteReport) {
					op := ops[sr.Pos.String()]
					if sr.Transformed && sr.Result != nil && !sr.Result.Staggered &&
						op != nil && !transform.ReorderSafe(op) {
						sr.Result.Staggered = true
					}
				})
				return verify.Variant(prog, pl, out, lie)
			},
		},
		{
			// Corrupt one receive's count: the send/receive classes no
			// longer pair up.
			name: "mismatched-recv-count",
			code: verify.CodeSendrecvMismatch,
			run: func(t *testing.T) []verify.Diagnostic {
				_, pl, prog, out, rep := pickScenario(t, anyFixed)
				mut := mutateAST(t, out, func(f *ftn.File) bool {
					hit := false
					for _, u := range f.Units {
						ftn.Inspect(u.Body, func(s ftn.Stmt) bool {
							if cs, ok := s.(*ftn.CallStmt); ok && cs.Name == "mpi_irecv" && !hit {
								cs.Args[1] = ftn.Add(cs.Args[1], ftn.Int(1))
								hit = true
							}
							return !hit
						})
					}
					return hit
				})
				return verify.Variant(prog, pl, mut, rep)
			},
		},
		{
			// Wait on the sends before any receive is posted: every rank
			// blocks sending under rendezvous.
			name: "wait-before-recv-posted",
			code: verify.CodeDeadlockOrder,
			run: func(t *testing.T) []verify.Diagnostic {
				_, pl, prog, out, rep := pickScenario(t, anyFixed)
				mut := mutateAST(t, out, func(f *ftn.File) bool {
					hit := false
					var counter string
					for _, u := range f.Units {
						ftn.Inspect(u.Body, func(s ftn.Stmt) bool {
							if cs, ok := s.(*ftn.CallStmt); ok && cs.Name == "mpi_waitall" {
								if id, ok := cs.Args[0].(*ftn.Ident); ok {
									counter = id.Name
								}
							}
							return counter == ""
						})
						if counter == "" {
							continue
						}
						u.Body = mapLists(u.Body, func(list []ftn.Stmt) []ftn.Stmt {
							for i, s := range list {
								if cs, ok := s.(*ftn.CallStmt); ok && cs.Name == "mpi_isend" && !hit {
									hit = true
									wait := &ftn.CallStmt{Name: "mpi_waitall", Args: []ftn.Expr{
										&ftn.Ident{Name: counter}, &ftn.Ident{Name: "cc_reqs"},
										&ftn.Ident{Name: "mpi_statuses_ignore"}, &ftn.Ident{Name: "cc_ierr"},
									}}
									out := append([]ftn.Stmt{}, list[:i+1]...)
									out = append(out, wait)
									return append(out, list[i+1:]...)
								}
							}
							return list
						})
					}
					return hit
				})
				return verify.Variant(prog, pl, mut, rep)
			},
		},
		{
			// Touch a site the plan skipped: byte-identity breaks.
			name: "skipped-site-touched",
			code: verify.CodeSkipNotIdentical,
			run: func(t *testing.T) []verify.Diagnostic {
				sc, _, _, _, _ := pickScenario(t, func(prog *core.Program, _ string, _ *core.Report) bool {
					return len(prog.Sites) >= 2
				})
				prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
				if err != nil {
					t.Fatal(err)
				}
				pl := plan.Uniform(plan.Decision{K: sc.K})
				pl.Sites = append(pl.Sites, plan.SitePlan{
					Site: prog.Sites[0].Key(), Decision: plan.Identity(),
				})
				out, rep, err := core.Apply(prog, pl)
				if err != nil {
					t.Fatal(err)
				}
				if rep.SkippedCount() == 0 || rep.TransformedCount() == 0 {
					t.Skip("plan did not produce a mixed skip/transform variant")
				}
				mut := mutateAST(t, out, func(f *ftn.File) bool {
					for _, u := range f.Units {
						found := false
						ftn.Inspect(u.Body, func(s ftn.Stmt) bool {
							if cs, ok := s.(*ftn.CallStmt); ok && cs.Name == "mpi_alltoall" && !found {
								cs.Args[1] = ftn.Add(cs.Args[1], ftn.Int(1))
								found = true
							}
							return !found
						})
						if found {
							return true
						}
					}
					return false
				})
				return verify.Variant(prog, pl, mut, rep)
			},
		},
		{
			// Keep (re-introduce) an MPI_ALLTOALL the report claims removed.
			name: "alltoall-kept",
			code: verify.CodeAlltoallNotRemoved,
			run: func(t *testing.T) []verify.Diagnostic {
				_, pl, prog, out, rep := pickScenario(t, anyFixed)
				ops := opsBySite(t, prog)
				var orig *ftn.CallStmt
				for _, op := range ops {
					orig = op.Call.Stmt
					break
				}
				if orig == nil {
					t.Fatal("no analyzed site to clone the call from")
				}
				mut := mutateAST(t, out, func(f *ftn.File) bool {
					for _, u := range f.Units {
						if u.Kind == ftn.ProgramUnit {
							dup := &ftn.CallStmt{Name: "mpi_alltoall", Args: cloneExprs(orig.Args)}
							u.Body = append(u.Body, dup)
							return true
						}
					}
					return false
				})
				return verify.Variant(prog, pl, mut, rep)
			},
		},
		{
			// Corrupt the variant text entirely.
			name: "unparsable-variant",
			code: verify.CodeParseError,
			run: func(t *testing.T) []verify.Diagnostic {
				_, pl, prog, out, rep := pickScenario(t, anyFixed)
				return verify.Variant(prog, pl, out+"\nend if\n", rep)
			},
		},
	}

	caught := map[string]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := tc.run(t)
			if len(diags) == 0 {
				t.Fatalf("injected defect not detected (want code %s)", tc.code)
			}
			if !codesOf(diags)[tc.code] {
				t.Fatalf("injected defect reported as %s, want %s", verify.Summarize(diags), tc.code)
			}
			caught[tc.code] = true
		})
	}
	if len(caught) < 8 {
		t.Errorf("mutation catalog covers %d distinct diagnostic codes, want >= 8", len(caught))
	}
}

// opsBySite re-analyzes a program and indexes opportunities by site key.
func opsBySite(t *testing.T, prog *core.Program) map[string]*analysis.Opportunity {
	t.Helper()
	f, err := ftn.Parse(prog.Source())
	if err != nil {
		t.Fatal(err)
	}
	ops, _ := analysis.FindOpportunities(f, analysis.Options{})
	out := map[string]*analysis.Opportunity{}
	for _, op := range ops {
		out[op.Call.Stmt.Pos().String()] = op
	}
	return out
}

// TestSkipAllByteIdentity pins the identity-plan contract the validator
// keys on: a skip-all plan returns the original bytes, and any deviation is
// a skip-not-identical finding.
func TestSkipAllByteIdentity(t *testing.T) {
	sc := workload.GenerateScenarios(workload.GenOptions{})[0]
	pl := &plan.Plan{Schema: plan.Schema, Default: plan.Identity()}
	prog, out, rep := variant(t, sc.Source, pl)
	if out != sc.Source {
		t.Fatal("skip-all plan did not return the original bytes")
	}
	if diags := verify.Variant(prog, pl, out, rep); len(diags) != 0 {
		t.Fatalf("clean identity variant flagged: %s", verify.Summarize(diags))
	}
	diags := verify.Variant(prog, pl, out+"\n", rep)
	if len(diags) != 1 || diags[0].Code != verify.CodeSkipNotIdentical {
		t.Fatalf("perturbed identity variant: got %s, want %s", verify.Summarize(diags), verify.CodeSkipNotIdentical)
	}
}

// hasModGuard reports whether a variant carries a whole-tile guard of the
// shape `if (mod(..., K) == 0)` — the injection point the guard-off-by-one
// mutation needs (the staggered schedule has none).
func hasModGuard(out string) bool {
	f, err := ftn.Parse(out)
	if err != nil {
		return false
	}
	found := false
	for _, u := range f.Units {
		ftn.Inspect(u.Body, func(s ftn.Stmt) bool {
			if ifs, ok := s.(*ftn.IfStmt); ok {
				if bin, ok := ifs.Cond.(*ftn.Binary); ok && bin.Op == "==" {
					if ref, ok := bin.X.(*ftn.Ref); ok && ref.Name == "mod" && len(ref.Args) == 2 {
						found = true
					}
				}
			}
			return !found
		})
	}
	return found
}

// cloneExprs deep-copies an argument list.
func cloneExprs(args []ftn.Expr) []ftn.Expr {
	out := make([]ftn.Expr, len(args))
	for i, a := range args {
		out[i] = ftn.CloneExpr(a)
	}
	return out
}
