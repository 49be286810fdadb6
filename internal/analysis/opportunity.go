package analysis

import (
	"repro/internal/access"
	"repro/internal/dep"
	"repro/internal/ftn"
)

// FindOpportunities locates every transformable MPI_ALLTOALL site in the
// file's program unit, per §3.1. Sites that cannot be transformed are
// reported as RejectionErrors in the second result; analysis of one site
// never prevents analysis of another.
func FindOpportunities(file *ftn.File, opts Options) ([]*Opportunity, []error) {
	var ops []*Opportunity
	var errs []error
	err := eachSite(file, func(unit *ftn.Unit, list *[]ftn.Stmt, i int, inConditional bool) bool {
		if op, err := analyzeCall(file, unit, list, i, inConditional, opts); err != nil {
			errs = append(errs, err)
		} else {
			ops = append(ops, op)
		}
		return true
	})
	if err != nil {
		return nil, []error{err}
	}
	return ops, errs
}

// Locate analyses the one MPI_ALLTOALL site whose call stands at pos,
// exactly as FindOpportunities would: its opportunity, or its rejection.
// A rewriter that knows which site it is about to rewrite locates that one
// instead of the whole file.
func Locate(file *ftn.File, pos ftn.Pos, opts Options) (*Opportunity, error) {
	var op *Opportunity
	var err error = reject(pos, "no MPI_ALLTOALL call here")
	if e := eachSite(file, func(unit *ftn.Unit, list *[]ftn.Stmt, i int, inConditional bool) bool {
		if (*list)[i].Pos() != pos {
			return true
		}
		op, err = analyzeCall(file, unit, list, i, inConditional, opts)
		return false
	}); e != nil {
		return nil, e
	}
	return op, err
}

// eachSite calls visit on every MPI_ALLTOALL call of the file's program unit,
// (*list)[i], in program order, until visit returns false. The error is the
// rejection of a file without a program unit.
func eachSite(file *ftn.File, visit func(unit *ftn.Unit, list *[]ftn.Stmt, i int, inConditional bool) bool) error {
	unit := file.Program()
	if unit == nil {
		return reject(ftn.Pos{}, "no program unit in file")
	}
	// Walk every statement list; conditionals are excluded per the paper
	// ("the last loop nest not in a conditional statement").
	var walkLists func(list *[]ftn.Stmt, inConditional bool) bool
	walkLists = func(list *[]ftn.Stmt, inConditional bool) bool {
		for i, s := range *list {
			switch s := s.(type) {
			case *ftn.CallStmt:
				if s.Name == "mpi_alltoall" && !visit(unit, list, i, inConditional) {
					return false
				}
			case *ftn.DoStmt:
				if !walkLists(&s.Body, inConditional) {
					return false
				}
			case *ftn.IfStmt:
				if !walkLists(&s.Then, true) || !walkLists(&s.Else, true) {
					return false
				}
			}
		}
		return true
	}
	walkLists(&unit.Body, false)
	return nil
}

// analyzeCall is one site's outcome: a call inside a conditional is rejected,
// any other is analysed.
func analyzeCall(file *ftn.File, unit *ftn.Unit, list *[]ftn.Stmt, callIdx int, inConditional bool, opts Options) (*Opportunity, error) {
	if inConditional {
		return nil, reject((*list)[callIdx].Pos(), "MPI_ALLTOALL inside a conditional")
	}
	if opts.Oracle == nil {
		opts.Oracle = NoOracle{}
	}
	return analyzeSite(file, unit, list, callIdx, opts)
}

// analyzeSite runs the full per-site analysis pipeline for the call at
// (*list)[callIdx]: it locates C, ℓ and the unit's facts in this file, then
// classifies the pattern, whose proofs go through opts.Proofs.
func analyzeSite(file *ftn.File, unit *ftn.Unit, list *[]ftn.Stmt, callIdx int, opts Options) (*Opportunity, error) {
	call := (*list)[callIdx].(*ftn.CallStmt)
	ac, err := parseAlltoall(call)
	if err != nil {
		return nil, err
	}

	op := &Opportunity{
		Unit:      unit,
		Call:      *ac,
		Parent:    list,
		CallIndex: callIdx,
		LIndex:    -1,
		InitIdx:   -1,
	}
	gatherUnitFacts(op, unit, opts)

	if len(op.AsDims) == 0 {
		return nil, reject(call.Pos(), "send buffer %s is not a declared array", ac.As)
	}
	if len(op.ArDims) == 0 {
		return nil, reject(call.Pos(), "receive buffer %s is not a declared array", ac.Ar)
	}

	// Locate ℓ: the last loop nest, not in a conditional, lexically
	// preceding C in the same statement list, that mutates As (§3.1).
	candidates := 0
	for i := callIdx - 1; i >= 0; i-- {
		if _, ok := (*list)[i].(*ftn.DoStmt); ok {
			candidates++
		}
	}
	for i := callIdx - 1; i >= 0; i-- {
		do, ok := (*list)[i].(*ftn.DoStmt)
		if !ok {
			continue
		}
		mut, semi, known := mutatesArray(file, do.Body, ac.As, opts.Oracle)
		if !known {
			// Unavailable source and no oracle answer: the paper's
			// conservative rule applies only when this is the only
			// candidate loop.
			if candidates == 1 {
				op.note("assuming loop at %s mutates %s (only candidate; conservative)", do.Pos(), ac.As)
				mut = true
			} else {
				op.note("skipping loop at %s: cannot decide whether it mutates %s", do.Pos(), ac.As)
				continue
			}
		}
		if semi {
			op.SemiAuto = true
		}
		if mut {
			op.L = do
			op.LIndex = i
			break
		}
	}
	if op.L == nil {
		return nil, reject(call.Pos(), "no loop nest preceding the call mutates %s", ac.As)
	}

	if opts.Proofs != nil {
		op.proofs = opts.Proofs
		op.key = proofKey{site: call.Pos(), nest: ftn.PrintStmts([]ftn.Stmt{op.L}, 0), np: opts.NP}
	}

	// Ar must not be consumed between ℓ and C, nor inside ℓ: the receives
	// are posted inside ℓ, so any earlier use would read unarrived data
	// (§3.1's "earliest safe receive point").
	if pos, used := arrayUsedBetween(unit.Body, ac.Ar, op.L, call); used {
		return nil, reject(pos, "receive array %s is used before the ALLTOALL completes", ac.Ar)
	}

	// Classify the compute-copy pattern and run the per-pattern analyses.
	if err := classifyPattern(file, op, opts); err != nil {
		return nil, err
	}
	return op, nil
}

// parseAlltoall validates and destructures the call's 8 arguments.
func parseAlltoall(call *ftn.CallStmt) (*AlltoallCall, error) {
	if len(call.Args) != 8 {
		return nil, reject(call.Pos(), "MPI_ALLTOALL has %d arguments, want 8", len(call.Args))
	}
	asName, ok := bufferName(call.Args[0])
	if !ok {
		return nil, reject(call.Pos(), "send buffer argument is not a plain array name")
	}
	arName, ok := bufferName(call.Args[3])
	if !ok {
		return nil, reject(call.Pos(), "receive buffer argument is not a plain array name")
	}
	return &AlltoallCall{
		Stmt:      call,
		As:        asName,
		Ar:        arName,
		SendCount: call.Args[1],
		SendType:  call.Args[2],
		RecvCount: call.Args[4],
		RecvType:  call.Args[5],
		Comm:      call.Args[6],
		Ierr:      call.Args[7],
	}, nil
}

// bufferName extracts the array name from a buffer argument (a bare name or
// a whole-array starting reference like as(1) / as(1,1)).
func bufferName(e ftn.Expr) (string, bool) {
	switch e := e.(type) {
	case *ftn.Ident:
		return e.Name, true
	case *ftn.Ref:
		return e.Name, true
	}
	return "", false
}

// gatherUnitFacts fills the environment-facts fields of op.
func gatherUnitFacts(op *Opportunity, unit *ftn.Unit, opts Options) {
	st := ftn.Symbols(unit)
	op.Consts = map[string]int64{}
	op.Arrays = map[string]bool{}
	var sc scope
	type param struct {
		slot int
		init code
	}
	var params []param
	for _, name := range st.Names() {
		sym := st.Lookup(name)
		if sym.IsArray() {
			op.Arrays[name] = true
		}
		if sym.Parameter && sym.Init != nil {
			params = append(params, param{sc.slotOf(name), sc.resolve(sym.Init)})
		}
	}
	// Parameters may reference each other; repeated passes resolve chains.
	en := sc.newEnv(nil)
	for pass := 0; pass < 4; pass++ {
		for _, p := range params {
			if v, ok := en.run(p.init); ok {
				en.set(p.slot, v)
			}
		}
	}
	for _, p := range params {
		if en.def[p.slot] {
			op.Consts[sc.names[p.slot]] = en.val[p.slot]
		}
	}
	if opts.NP > 0 {
		op.Consts["$np"] = int64(opts.NP)
	}
	op.AsDims = declTriplets(st, op.Call.As, op.Consts)
	op.ArDims = declTriplets(st, op.Call.Ar, op.Consts)

	// Find the rank/size variables and the mpi_init position.
	for i, s := range unit.Body {
		call, ok := s.(*ftn.CallStmt)
		if !ok {
			continue
		}
		switch call.Name {
		case "mpi_init":
			op.InitIdx = i
		case "mpi_comm_rank":
			if len(call.Args) >= 2 {
				if id, ok := call.Args[1].(*ftn.Ident); ok {
					op.RankVar = id.Name
				}
			}
		case "mpi_comm_size":
			if len(call.Args) >= 2 {
				if id, ok := call.Args[1].(*ftn.Ident); ok {
					op.SizeVar = id.Name
				}
			}
		}
	}
}

// declTriplets converts a symbol's declared dims to access triplets.
func declTriplets(st *ftn.SymbolTable, name string, consts map[string]int64) []access.Triplet {
	sym := st.Lookup(name)
	if sym == nil || !sym.IsArray() {
		return nil
	}
	env := &dep.Env{LoopVars: map[string]bool{}, Consts: consts}
	out := make([]access.Triplet, 0, len(sym.Dims))
	for _, d := range sym.Dims {
		var lo, hi dep.Affine
		if d.Lo == nil {
			lo = dep.NewAffine(1)
		} else if a, ok := dep.FromExpr(d.Lo, env); ok {
			lo = a
		} else {
			lo = dep.NewAffine(0)
			lo.Syms["?lo:"+name] = 1
		}
		if d.Hi == nil {
			hi = dep.NewAffine(0)
			hi.Syms["?assumed:"+name] = 1
		} else if a, ok := dep.FromExpr(d.Hi, env); ok {
			hi = a
		} else {
			hi = dep.NewAffine(0)
			hi.Syms["?hi:"+name] = 1
		}
		out = append(out, access.Triplet{Lo: lo, Hi: hi})
	}
	return out
}

// mutatesArray decides whether the statements may write array (§3.1):
// directly via assignment, or indirectly by passing it to a procedure.
// Results: mutates; semiAuto (oracle consulted); known (decided at all).
func mutatesArray(file *ftn.File, stmts []ftn.Stmt, array string, oracle Oracle) (bool, bool, bool) {
	mutates := false
	semi := false
	known := true
	ftn.Inspect(stmts, func(s ftn.Stmt) bool {
		switch s := s.(type) {
		case *ftn.AssignStmt:
			if ref, ok := s.LHS.(*ftn.Ref); ok && ref.Name == array {
				mutates = true
			}
			if id, ok := s.LHS.(*ftn.Ident); ok && id.Name == array {
				mutates = true
			}
		case *ftn.CallStmt:
			argPos := -1
			for i, a := range s.Args {
				if n, ok := bufferName(a); ok && n == array {
					argPos = i
					break
				}
			}
			if argPos < 0 {
				return true
			}
			// The source of the callee may be available in this file.
			if sub := file.Subroutine(s.Name); sub != nil {
				if argPos < len(sub.Params) {
					if subWrites(file, sub, sub.Params[argPos], map[string]bool{}) {
						mutates = true
					}
					return true
				}
			}
			// Unavailable source: query the user (semi-automatic mode).
			if w, answered := oracle.ProcedureWrites(s.Name, array); answered {
				semi = true
				if w {
					mutates = true
				}
				return true
			}
			known = false
		}
		return true
	})
	return mutates, semi, known
}

// subWrites reports whether unit writes (directly or transitively) through
// the dummy argument named dummy.
func subWrites(file *ftn.File, unit *ftn.Unit, dummy string, visited map[string]bool) bool {
	key := unit.Name + ":" + dummy
	if visited[key] {
		return false
	}
	visited[key] = true
	writes := false
	ftn.Inspect(unit.Body, func(s ftn.Stmt) bool {
		switch s := s.(type) {
		case *ftn.AssignStmt:
			if ref, ok := s.LHS.(*ftn.Ref); ok && ref.Name == dummy {
				writes = true
			}
			if id, ok := s.LHS.(*ftn.Ident); ok && id.Name == dummy {
				writes = true
			}
		case *ftn.CallStmt:
			for i, a := range s.Args {
				if n, ok := bufferName(a); ok && n == dummy {
					if callee := file.Subroutine(s.Name); callee != nil && i < len(callee.Params) {
						if subWrites(file, callee, callee.Params[i], visited) {
							writes = true
						}
					} else {
						// Unknown callee: conservative.
						writes = true
					}
				}
			}
		}
		return true
	})
	return writes
}

// arrayUsedBetween reports any use of array between the end of l and the
// call c in execution order (conservatively: any lexical reference in the
// unit body that is not inside l and not the call itself, appearing before
// c).
func arrayUsedBetween(body []ftn.Stmt, array string, l *ftn.DoStmt, c *ftn.CallStmt) (ftn.Pos, bool) {
	found := false
	var at ftn.Pos
	reached := false
	var walk func(stmts []ftn.Stmt)
	walk = func(stmts []ftn.Stmt) {
		for _, s := range stmts {
			if reached || found {
				return
			}
			if s == ftn.Stmt(l) {
				continue // uses inside ℓ are part of production, checked elsewhere
			}
			if cs, ok := s.(*ftn.CallStmt); ok && cs == c {
				reached = true
				return
			}
			for _, e := range ftn.StmtExprs(s) {
				ftn.WalkExpr(e, func(n ftn.Expr) bool {
					switch n := n.(type) {
					case *ftn.Ident:
						if n.Name == array {
							found = true
							at = n.Pos()
						}
					case *ftn.Ref:
						if n.Name == array {
							found = true
							at = n.Pos()
						}
					}
					return !found
				})
			}
			switch s := s.(type) {
			case *ftn.DoStmt:
				walk(s.Body)
			case *ftn.IfStmt:
				walk(s.Then)
				walk(s.Else)
			}
		}
	}
	walk(body)
	return at, found
}
