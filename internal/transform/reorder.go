package transform

import (
	"repro/internal/analysis"
	"repro/internal/dep"
	"repro/internal/ftn"
)

// Tile-order independence: the staggered subset-send schedule (see
// directOutermostStaggered) makes every rank traverse ℓ's tiles in a
// different, rank-dependent order. That is only legal when no iteration of
// the tiled loop observes state produced by another iteration:
//
//  1. no dependence among the nest's array references is carried by the
//     tiled (outermost) loop — every feasible direction vector must be "="
//     at level 0, proven exactly;
//  2. no scalar value flows between iterations of the tiled loop — every
//     scalar read inside the body is (re)defined earlier in the same
//     iteration, on every path;
//  3. nothing order-sensitive executes inside the body (PRINT output lines
//     would be reordered; CALLs and control transfers are opaque);
//  4. the tiled loop variable and every scalar the body assigns are dead
//     after ℓ — the staggered traversal leaves them at rank-dependent
//     values, so a post-loop read would break bit-identical results.
//
// All checks are conservative: an Unknown answer disables the staggered
// schedule and the original owner-ordered schedule is kept.

// ReorderSafe is the exported form of the tile-order-independence proof for
// one opportunity: the receive array must not be referenced inside the nest
// (the staggered traversal rewrites its fill order) and every check above
// must pass. The transformer gates the staggered schedule on exactly this
// predicate, so a validator calling it re-derives the same legality verdict
// from the same dependence facts. Like the analysis' own proofs it is kept in
// the caller's analysis.ProofMemo, if any (a validator supplies none).
func ReorderSafe(op *analysis.Opportunity) bool {
	if op == nil || op.Nest == nil || op.L == nil || op.Unit == nil {
		return false
	}
	return analysis.ProveOnce(op, "tile-order", func() bool {
		if len(op.Nest.ByArray[op.Call.Ar]) != 0 {
			return false
		}
		return tileReorderSafe(op.Nest.Refs, op.Unit.Body, op.L, op.Arrays, op.Consts)
	})
}

// tileReorderSafe runs all the checks for the opportunity's nest. unitBody
// is the whole program-unit body (the post-loop liveness scan needs it);
// consts carries the unit's named parameter values.
func tileReorderSafe(refs []*dep.Ref, unitBody []ftn.Stmt, loop *ftn.DoStmt, arrays map[string]bool, consts map[string]int64) bool {
	if !nestReorderSafe(refs) {
		return false
	}
	sc := &scalarScan{
		arrays:  arrays,
		liveIn:  map[string]bool{},
		written: map[string]bool{},
		ok:      true,
	}
	sc.block(loop.Body, map[string]bool{loop.Var: true})
	if !sc.ok {
		return false
	}
	for name := range sc.liveIn {
		if sc.written[name] {
			return false // carried scalar flow across iterations
		}
	}
	// Post-loop liveness: every name the staggered traversal perturbs.
	names := map[string]bool{loop.Var: true}
	for name := range sc.written {
		names[name] = true
	}
	return !postLoopReads(unitBody, loop, names, consts)
}

// nestReorderSafe proves no dependence is carried by the outermost loop:
// for every pair of references involving a write, all feasible direction
// vectors must have "=" at level 0, with exact dependence information.
func nestReorderSafe(refs []*dep.Ref) bool {
	for _, r1 := range refs {
		for _, r2 := range refs {
			if !r1.Write && !r2.Write {
				continue
			}
			vecs, exact := dep.DirectionVectors(r1, r2)
			if !exact {
				return false
			}
			for _, v := range vecs {
				if len(v) == 0 || v[0] != dep.DirEQ {
					return false
				}
			}
		}
	}
	return true
}

// postLoopReads reports whether any of names may be read after an execution
// of loop completes. ℓ is never inside an IF (the analysis rejects those
// sites), so its ancestors are DO bodies plus the unit body: for an ancestor
// DO body the whole list may re-execute after ℓ (the loop cycles), for the
// unit body only the statements after ℓ's top-level ancestor run. Each
// region is scanned in order with redefinition tracking — a name killed by
// an unconditional scalar assignment or by serving as another DO's loop
// variable no longer carries ℓ's value, so later reads of it are fine.
// Kills inside DOs and IF branches do not persist (zero trips, untaken
// branches), keeping the scan conservative.
func postLoopReads(unitBody []ftn.Stmt, loop *ftn.DoStmt, names map[string]bool, consts map[string]int64) bool {
	path, ok := pathTo(unitBody, loop)
	if !ok {
		return true // cannot locate ℓ: refuse to reorder
	}
	ps := &postScanner{skip: loop, consts: consts}
	for level, pe := range path {
		// The same-iteration tail — statements after ℓ's ancestor in this
		// list — runs immediately after ℓ, before anything earlier in the
		// list re-executes, so it is scanned with the full name set (a kill
		// lexically before ℓ has not happened yet at that point).
		if ps.readsAny(pe.list[pe.index+1:], cloneSet(names)) {
			return true
		}
		// Ancestor DO bodies also cycle: the next iteration re-runs the
		// whole list (including statements before ℓ) while ℓ's values are
		// still live, so scan the full list too. Level 0 is the unit body,
		// which executes once.
		if level > 0 && ps.readsAny(pe.list, cloneSet(names)) {
			return true
		}
	}
	return false
}

// pathEntry is one ancestor level on the way to ℓ: the statement list and
// the index of the statement containing (or being) ℓ.
type pathEntry struct {
	list  []ftn.Stmt
	index int
}

// pathTo finds the ancestor chain from the unit body (level 0) down to the
// list containing loop, descending only through DO bodies.
func pathTo(body []ftn.Stmt, loop *ftn.DoStmt) ([]pathEntry, bool) {
	for i, s := range body {
		if s == ftn.Stmt(loop) {
			return []pathEntry{{list: body, index: i}}, true
		}
		if do, ok := s.(*ftn.DoStmt); ok {
			if sub, found := pathTo(do.Body, loop); found {
				return append([]pathEntry{{list: body, index: i}}, sub...), true
			}
		}
	}
	return nil, false
}

// postScanner scans statement regions for reads of ℓ-perturbed names.
type postScanner struct {
	skip   *ftn.DoStmt
	consts map[string]int64
}

func readExpr(e ftn.Expr, live map[string]bool) bool {
	found := false
	ftn.WalkExpr(e, func(n ftn.Expr) bool {
		if id, ok := n.(*ftn.Ident); ok && live[id.Name] {
			found = true
		}
		return !found
	})
	return found
}

// readsAny scans a statement region in order for reads of live names,
// skipping the ℓ subtree and killing names on unconditional redefinition.
func (ps *postScanner) readsAny(list []ftn.Stmt, live map[string]bool) bool {
	for _, s := range list {
		if s == ftn.Stmt(ps.skip) {
			continue
		}
		switch s := s.(type) {
		case *ftn.AssignStmt:
			if readExpr(s.RHS, live) {
				return true
			}
			switch lhs := s.LHS.(type) {
			case *ftn.Ref:
				for _, a := range lhs.Args {
					if readExpr(a, live) {
						return true
					}
				}
			case *ftn.Ident:
				delete(live, lhs.Name) // redefined: ℓ's value no longer observable
			}
		case *ftn.DoStmt:
			if readExpr(s.Lo, live) || readExpr(s.Hi, live) || (s.Step != nil && readExpr(s.Step, live)) {
				return true
			}
			// Inside the body the DO variable always holds this loop's value.
			inner := cloneSet(live)
			delete(inner, s.Var)
			if ps.readsAny(s.Body, inner) {
				return true
			}
			// After the loop the variable only lost ℓ's value if the header
			// actually assigned it, i.e. the loop provably runs ≥ 1 trip.
			if ps.tripsAtLeastOne(s) {
				delete(live, s.Var)
			}
		case *ftn.IfStmt:
			if readExpr(s.Cond, live) {
				return true
			}
			if ps.readsAny(s.Then, cloneSet(live)) || ps.readsAny(s.Else, cloneSet(live)) {
				return true
			}
		case *ftn.CommentStmt, *ftn.ContinueStmt, *ftn.ReturnStmt, *ftn.StopStmt, *ftn.ExitStmt, *ftn.CycleStmt:
			// no scalar reads
		default:
			// CALL (arguments may read or alias), PRINT (reads): check every
			// expression conservatively.
			for _, e := range ftn.StmtExprs(s) {
				if readExpr(e, live) {
					return true
				}
			}
		}
	}
	return false
}

// tripsAtLeastOne proves a DO executes its body (and hence assigns its
// variable) at least once, with numeric bounds under the unit's constants.
func (ps *postScanner) tripsAtLeastOne(s *ftn.DoStmt) bool {
	env := &dep.Env{LoopVars: map[string]bool{}, Consts: ps.consts}
	loA, ok1 := dep.FromExpr(s.Lo, env)
	hiA, ok2 := dep.FromExpr(s.Hi, env)
	if !ok1 || !ok2 {
		return false
	}
	lo, okl := loA.Bind(ps.consts).Eval(nil)
	hi, okh := hiA.Bind(ps.consts).Eval(nil)
	if !okl || !okh {
		return false
	}
	step := int64(1)
	if s.Step != nil {
		stA, ok := dep.FromExpr(s.Step, env)
		if !ok {
			return false
		}
		st, oks := stA.Bind(ps.consts).Eval(nil)
		if !oks {
			return false
		}
		step = st
	}
	switch {
	case step > 0:
		return hi >= lo
	case step < 0:
		return hi <= lo
	}
	return false
}

// scalarScan walks ℓ's body in execution order deciding whether any scalar
// is live into an iteration (read before being unconditionally defined).
// Definitions made inside a DO body or an IF branch do not survive the
// construct (a DO may run zero trips, a branch may not be taken), which
// keeps the scan conservative without bound reasoning.
type scalarScan struct {
	arrays  map[string]bool
	liveIn  map[string]bool // scalars whose first access may be a read
	written map[string]bool // scalars assigned anywhere in the body
	ok      bool            // false once something order-sensitive is seen
}

func cloneSet(m map[string]bool) map[string]bool {
	c := make(map[string]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// read records every scalar read in e against the defined set.
func (sc *scalarScan) read(e ftn.Expr, defined map[string]bool) {
	ftn.WalkExpr(e, func(n ftn.Expr) bool {
		if id, isId := n.(*ftn.Ident); isId {
			if !sc.arrays[id.Name] && !defined[id.Name] {
				sc.liveIn[id.Name] = true
			}
		}
		return true
	})
}

// block scans a statement list, mutating defined for straight-line code.
func (sc *scalarScan) block(list []ftn.Stmt, defined map[string]bool) {
	for _, s := range list {
		if !sc.ok {
			return
		}
		switch s := s.(type) {
		case *ftn.AssignStmt:
			sc.read(s.RHS, defined)
			switch lhs := s.LHS.(type) {
			case *ftn.Ref:
				for _, a := range lhs.Args {
					sc.read(a, defined)
				}
				if !sc.arrays[lhs.Name] {
					sc.ok = false // statement-function-ish oddity: bail
				}
			case *ftn.Ident:
				sc.written[lhs.Name] = true
				defined[lhs.Name] = true
			}
		case *ftn.DoStmt:
			sc.read(s.Lo, defined)
			sc.read(s.Hi, defined)
			if s.Step != nil {
				sc.read(s.Step, defined)
			}
			sc.written[s.Var] = true
			inner := cloneSet(defined)
			inner[s.Var] = true
			sc.block(s.Body, inner) // definitions do not survive (zero trips)
		case *ftn.IfStmt:
			sc.read(s.Cond, defined)
			sc.block(s.Then, cloneSet(defined))
			sc.block(s.Else, cloneSet(defined))
		case *ftn.CommentStmt, *ftn.ContinueStmt:
			// no effect
		default:
			// PRINT (line order), CALL (opaque), RETURN/STOP/EXIT/CYCLE
			// (control transfer): all order-sensitive.
			sc.ok = false
		}
	}
}
