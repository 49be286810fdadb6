package verify

import (
	"fmt"
	"sort"

	"repro/internal/ftn"
)

// Lint is the static MPI schedule linter: it abstractly interprets every
// program unit's nonblocking communication and reports schedule defects
// without running anything. The model tracks, per request counter (the
// `nreq = nreq + 1; call mpi_isend(..., reqs(nreq), ierr)` idiom), the set
// of posts outstanding since the last drain. Checks:
//
//   - wait-missing: the unit can end (or RETURN/STOP) with requests still
//     outstanding — a nonblocking request is never waited;
//   - wait-double: an MPI_WAITALL can execute against an already-drained
//     request set (the canonical `if (nreq > 0)` guard proves liveness, so
//     guarded drains never fire this);
//   - request-reuse: a request slot can be overwritten before its wait —
//     a post without a fresh counter increment, or a counter reset that
//     orphans outstanding requests;
//   - sendrecv-mismatch: the unit's send and receive (count, dtype) pairs
//     disagree as sets, so some message class has no symmetric partner;
//   - deadlock-order: some drained epoch posts only one side of an
//     exchange — under SPMD rendezvous semantics every rank would block in
//     the same waitall with no matching posts anywhere (the pre-posted
//     receive invariant of the staggered schedule).
//
// Branches are joined by union (a post on either arm is outstanding after
// the IF); the special guard `if (counter > 0)` assumes the counter's set
// empty on the else arm, which is exactly what makes the generated
// wait-all block idempotent. Loop bodies are interpreted twice so a
// cross-iteration defect (posting into a slot the previous iteration never
// drained) is observed with the first iteration's state flowing around the
// back edge.
func Lint(f *ftn.File) []Diagnostic {
	var diags []Diagnostic
	for _, u := range f.Units {
		diags = append(diags, lintUnit(u)...)
	}
	return diags
}

// post is one outstanding nonblocking operation in the abstract state.
type post struct {
	kind  string // "send" or "recv"
	count string // normalized count expression
	dtype string // normalized datatype expression
	slot  string // normalized request-slot expression
	pos   ftn.Pos
}

func (p post) key() string {
	return p.kind + "|" + p.count + "|" + p.dtype + "|" + p.slot + "|" + p.pos.String()
}

// counterState is the abstract state of one request counter.
type counterState struct {
	outstanding  []post // posts since the last drain, in posted order
	drained      bool   // a drain happened and nothing was posted since
	freshSlot    bool   // the counter advanced since the last post
	assumePosted bool   // inside an `if (counter > 0)` guard: posts exist
}

func (cs *counterState) clone() *counterState {
	out := *cs
	out.outstanding = append([]post(nil), cs.outstanding...)
	return &out
}

// linter interprets one unit.
type linter struct {
	unit     string
	counters map[string]*counterState
	diags    []Diagnostic
	seen     map[string]bool // diagnostic dedupe (loop bodies run twice)
	sends    map[string]ftn.Pos
	recvs    map[string]ftn.Pos
}

func lintUnit(u *ftn.Unit) []Diagnostic {
	names := counterNames(u)
	if len(names) == 0 {
		return nil
	}
	lt := &linter{
		unit:     u.Name,
		counters: map[string]*counterState{},
		seen:     map[string]bool{},
		sends:    map[string]ftn.Pos{},
		recvs:    map[string]ftn.Pos{},
	}
	for name := range names {
		lt.counters[name] = &counterState{}
	}
	lt.block(u.Body)
	// Unit end: everything posted must have been drained on every path.
	for name, cs := range lt.counters {
		if len(cs.outstanding) > 0 {
			lt.report(Diagnostic{
				Code: CodeWaitMissing,
				Pos:  cs.outstanding[0].pos.String(),
				Msg: fmt.Sprintf("unit %s: %d request(s) posted through counter %s are never waited",
					u.Name, len(cs.outstanding), name),
			})
		}
	}
	// Symmetry: the unit's send and receive (count, dtype) classes must
	// match as sets — an unmatched class has no partner on any rank.
	for key, pos := range lt.sends {
		if _, ok := lt.recvs[key]; !ok {
			lt.report(Diagnostic{
				Code: CodeSendrecvMismatch,
				Pos:  pos.String(),
				Msg:  fmt.Sprintf("unit %s: send class (%s) has no matching receive", u.Name, key),
			})
		}
	}
	for key, pos := range lt.recvs {
		if _, ok := lt.sends[key]; !ok {
			lt.report(Diagnostic{
				Code: CodeSendrecvMismatch,
				Pos:  pos.String(),
				Msg:  fmt.Sprintf("unit %s: receive class (%s) has no matching send", u.Name, key),
			})
		}
	}
	sort.Slice(lt.diags, func(i, j int) bool {
		if lt.diags[i].Code != lt.diags[j].Code {
			return lt.diags[i].Code < lt.diags[j].Code
		}
		return lt.diags[i].Pos < lt.diags[j].Pos
	})
	return lt.diags
}

// counterNames pre-scans the unit for request counters: any identifier
// indexing the request-slot argument of a nonblocking post, or named as the
// count argument of an MPI_WAITALL.
func counterNames(u *ftn.Unit) map[string]bool {
	out := map[string]bool{}
	ftn.Inspect(u.Body, func(s ftn.Stmt) bool {
		cs, ok := s.(*ftn.CallStmt)
		if !ok {
			return true
		}
		switch cs.Name {
		case "mpi_isend", "mpi_irecv":
			if len(cs.Args) >= 7 {
				if ref, ok := cs.Args[6].(*ftn.Ref); ok && len(ref.Args) == 1 {
					if id, ok := ref.Args[0].(*ftn.Ident); ok {
						out[id.Name] = true
					}
				}
			}
		case "mpi_waitall":
			if len(cs.Args) >= 1 {
				if id, ok := cs.Args[0].(*ftn.Ident); ok {
					out[id.Name] = true
				}
			}
		}
		return true
	})
	return out
}

func (lt *linter) report(d Diagnostic) {
	key := d.Code + "|" + d.Pos + "|" + d.Msg
	if lt.seen[key] {
		return
	}
	lt.seen[key] = true
	lt.diags = append(lt.diags, d)
}

// block interprets a statement list in order.
func (lt *linter) block(list []ftn.Stmt) {
	for _, s := range list {
		lt.stmt(s)
	}
}

func (lt *linter) stmt(s ftn.Stmt) {
	switch s := s.(type) {
	case *ftn.CallStmt:
		lt.call(s)
	case *ftn.AssignStmt:
		lt.assign(s)
	case *ftn.DoStmt:
		// Two passes approximate the loop fixpoint: the second pass sees
		// the first iteration's state on the back edge, so a slot posted in
		// iteration i and never drained before iteration i+1 is caught.
		lt.block(s.Body)
		lt.block(s.Body)
	case *ftn.IfStmt:
		lt.branch(s)
	case *ftn.ReturnStmt:
		lt.exitPoint(s.Pos(), "RETURN")
	case *ftn.StopStmt:
		lt.exitPoint(s.Pos(), "STOP")
	}
}

// exitPoint checks an early unit exit for outstanding requests.
func (lt *linter) exitPoint(pos ftn.Pos, what string) {
	for name, cs := range lt.counters {
		if len(cs.outstanding) > 0 {
			lt.report(Diagnostic{
				Code: CodeWaitMissing,
				Pos:  pos.String(),
				Msg: fmt.Sprintf("unit %s: %s with %d request(s) outstanding on counter %s",
					lt.unit, what, len(cs.outstanding), name),
			})
		}
	}
}

// branch interprets both arms from the entry state and joins by union.
// The canonical drain guard `if (counter > 0)` carries a fact: on the then
// arm the counter's requests exist (assumePosted), on the else arm the
// counter's outstanding set is empty.
func (lt *linter) branch(s *ftn.IfStmt) {
	guard := guardCounter(s.Cond)
	entry := map[string]*counterState{}
	for name, cs := range lt.counters {
		entry[name] = cs.clone()
	}

	// Then arm.
	if guard != "" {
		if cs, ok := lt.counters[guard]; ok {
			cs.assumePosted = true
		}
	}
	lt.block(s.Then)
	thenOut := lt.counters

	// Else arm, from the entry state.
	lt.counters = map[string]*counterState{}
	for name, cs := range entry {
		lt.counters[name] = cs.clone()
	}
	if guard != "" {
		if cs, ok := lt.counters[guard]; ok {
			// counter == 0 on this arm: nothing outstanding.
			cs.outstanding = nil
			cs.drained = true
		}
	}
	lt.block(s.Else)
	elseOut := lt.counters

	// Join: union of outstanding posts, pessimistic flags.
	joined := map[string]*counterState{}
	for name := range entry {
		t, e := thenOut[name], elseOut[name]
		j := &counterState{
			drained:      t.drained && e.drained,
			freshSlot:    t.freshSlot && e.freshSlot,
			assumePosted: t.assumePosted && e.assumePosted,
		}
		seen := map[string]bool{}
		for _, p := range append(append([]post(nil), t.outstanding...), e.outstanding...) {
			if !seen[p.key()] {
				seen[p.key()] = true
				j.outstanding = append(j.outstanding, p)
			}
		}
		joined[name] = j
	}
	lt.counters = joined
}

// guardCounter matches the canonical drain guard `counter > 0`.
func guardCounter(cond ftn.Expr) string {
	bin, ok := cond.(*ftn.Binary)
	if !ok || bin.Op != ">" {
		return ""
	}
	id, ok := bin.X.(*ftn.Ident)
	if !ok {
		return ""
	}
	z, ok := bin.Y.(*ftn.IntLit)
	if !ok || z.Value != 0 {
		return ""
	}
	return id.Name
}

func (lt *linter) call(s *ftn.CallStmt) {
	switch s.Name {
	case "mpi_isend":
		lt.post(s, "send")
	case "mpi_irecv":
		lt.post(s, "recv")
	case "mpi_waitall":
		lt.waitall(s)
	case "mpi_wait":
		// Singular wait: conservatively drains everything — the linter has
		// no per-slot model, so it neither proves nor refutes anything here.
		for _, cs := range lt.counters {
			cs.outstanding = nil
			cs.drained = true
			cs.assumePosted = false
		}
	}
}

// post records a nonblocking send/receive against its counter.
func (lt *linter) post(s *ftn.CallStmt, kind string) {
	if len(s.Args) < 7 {
		return
	}
	ref, ok := s.Args[6].(*ftn.Ref)
	if !ok || len(ref.Args) != 1 {
		return
	}
	id, ok := ref.Args[0].(*ftn.Ident)
	if !ok {
		return
	}
	cs := lt.counters[id.Name]
	if cs == nil {
		return
	}
	p := post{
		kind:  kind,
		count: ftn.ExprString(s.Args[1]),
		dtype: ftn.ExprString(s.Args[2]),
		slot:  ftn.ExprString(s.Args[6]),
		pos:   s.Pos(),
	}
	if !cs.freshSlot && len(cs.outstanding) > 0 {
		last := cs.outstanding[len(cs.outstanding)-1]
		lt.report(Diagnostic{
			Code: CodeRequestReuse,
			Pos:  s.Pos().String(),
			Msg: fmt.Sprintf("unit %s: request slot %s reposted without advancing counter %s (previous post at %s is still outstanding)",
				lt.unit, p.slot, id.Name, last.pos),
		})
	}
	already := false
	for _, q := range cs.outstanding {
		if q.key() == p.key() {
			already = true // second loop pass replaying the same post
			break
		}
	}
	if !already {
		cs.outstanding = append(cs.outstanding, p)
	}
	cs.drained = false
	cs.freshSlot = false
	class := p.count + ", " + p.dtype
	if kind == "send" {
		if _, ok := lt.sends[class]; !ok {
			lt.sends[class] = s.Pos()
		}
	} else {
		if _, ok := lt.recvs[class]; !ok {
			lt.recvs[class] = s.Pos()
		}
	}
}

// waitall drains a counter's outstanding set, checking the drained epoch
// for rendezvous deadlock-freedom, and flags waits on already-drained sets.
func (lt *linter) waitall(s *ftn.CallStmt) {
	if len(s.Args) < 1 {
		return
	}
	id, ok := s.Args[0].(*ftn.Ident)
	if !ok {
		return
	}
	cs := lt.counters[id.Name]
	if cs == nil {
		return
	}
	switch {
	case len(cs.outstanding) > 0:
		lt.checkEpoch(s, id.Name, cs.outstanding)
		cs.outstanding = nil
		cs.drained = true
		cs.assumePosted = false
	case cs.assumePosted:
		// Guarded first drain: the guard proved requests exist dynamically
		// even though none are visible statically on this path.
		cs.drained = true
		cs.assumePosted = false
	default:
		lt.report(Diagnostic{
			Code: CodeWaitDouble,
			Pos:  s.Pos().String(),
			Msg:  fmt.Sprintf("unit %s: mpi_waitall on counter %s with nothing outstanding — the request set was already drained", lt.unit, id.Name),
		})
	}
}

// checkEpoch proves a drained epoch deadlock-free under SPMD rendezvous
// semantics: every rank executes the same posts before blocking in the same
// waitall, so an epoch whose posts are all sends (or all receives) blocks
// every rank with no matching post anywhere. The generated schedules always
// post both sides of an exchange — receives pre-posted before the drain —
// which is exactly what this check re-proves.
func (lt *linter) checkEpoch(s *ftn.CallStmt, counter string, epoch []post) {
	var nsend, nrecv int
	for _, p := range epoch {
		if p.kind == "send" {
			nsend++
		} else {
			nrecv++
		}
	}
	if nsend > 0 && nrecv == 0 {
		lt.report(Diagnostic{
			Code: CodeDeadlockOrder,
			Pos:  s.Pos().String(),
			Msg: fmt.Sprintf("unit %s: waitall on counter %s drains %d send(s) with no receive posted in the epoch — every rank blocks sending under rendezvous",
				lt.unit, counter, nsend),
		})
	}
	if nrecv > 0 && nsend == 0 {
		lt.report(Diagnostic{
			Code: CodeDeadlockOrder,
			Pos:  s.Pos().String(),
			Msg: fmt.Sprintf("unit %s: waitall on counter %s drains %d receive(s) with no send posted in the epoch — every rank blocks receiving",
				lt.unit, counter, nrecv),
		})
	}
}

// assign tracks counter mutations: the canonical increment refreshes the
// slot; a reset with requests outstanding orphans them (their slots will be
// overwritten by the next posts).
func (lt *linter) assign(s *ftn.AssignStmt) {
	id, ok := s.LHS.(*ftn.Ident)
	if !ok {
		return
	}
	cs := lt.counters[id.Name]
	if cs == nil {
		return
	}
	if mentionsIdent(s.RHS, id.Name) {
		// counter = counter ± k: the slot index advanced.
		cs.freshSlot = true
		return
	}
	// counter = <constant or unrelated>: a reset.
	if len(cs.outstanding) > 0 {
		lt.report(Diagnostic{
			Code: CodeRequestReuse,
			Pos:  s.Pos().String(),
			Msg: fmt.Sprintf("unit %s: counter %s reset with %d request(s) outstanding — their slots will be reused before any wait",
				lt.unit, id.Name, len(cs.outstanding)),
		})
		cs.outstanding = nil
	}
	cs.drained = true
	cs.freshSlot = false
	cs.assumePosted = false
}

// mentionsIdent reports whether the expression reads the named identifier.
func mentionsIdent(e ftn.Expr, name string) bool {
	if e == nil {
		return false
	}
	return ftn.IdentsIn(e)[name]
}
