// Package session scopes the pipeline's shared state — the compiled-variant
// store, the plan memo, and the execution engine — into one injected object
// instead of package globals. A Session is what a long-lived service holds:
// repeat tuning queries hit the memo, repeat variant executions hit the
// store, and two sessions in one process never share counters. The
// zero-configuration default is a fresh in-memory store, a fresh memo and
// the bytecode engine.
package session

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/tune"
	"repro/internal/verify"
)

// Options configures a session.
type Options struct {
	// Engine selects the execution engine; "" means exec.Default.
	Engine exec.Engine
	// Store backs compiled-variant lookups; nil means a fresh in-memory
	// store private to this session. Pass an exec.DiskStore to carry
	// variant knowledge across processes.
	Store exec.VariantStore
	// Memo caches tuning outcomes by analysis fingerprint; nil means a
	// fresh memo private to this session.
	Memo *tune.Memo
}

// Session carries the pipeline state one service instance shares across
// queries. Safe for concurrent use.
type Session struct {
	engine exec.Engine
	store  exec.VariantStore
	memo   *tune.Memo

	mu       sync.Mutex
	programs map[programKey]*core.Program

	// replayed and certified sum the searches' run-skeleton counters.
	replayed, certified atomic.Int64
}

type programKey struct {
	src string
	np  int64
}

// New builds a session; the zero Options value gives the defaults.
func New(opts Options) (*Session, error) {
	engine, err := exec.ParseEngine(string(opts.Engine))
	if err != nil {
		return nil, fmt.Errorf("session: %v", err)
	}
	store := opts.Store
	if store == nil {
		store = exec.NewMemStore()
	}
	memo := opts.Memo
	if memo == nil {
		memo = tune.NewMemo()
	}
	return &Session{
		engine:   engine,
		store:    store,
		memo:     memo,
		programs: map[programKey]*core.Program{},
	}, nil
}

// Engine returns the session's execution engine.
func (s *Session) Engine() exec.Engine { return s.engine }

// Store returns the session's variant store.
func (s *Session) Store() exec.VariantStore { return s.store }

// Memo returns the session's plan memo.
func (s *Session) Memo() *tune.Memo { return s.memo }

// Runner returns the execution handle binding the session's engine to its
// store.
func (s *Session) Runner() exec.Runner {
	return exec.Runner{Engine: s.engine, Store: s.store}
}

// Analyze parses and analyzes src, memoized per (source, NP): repeat
// queries over the same program reuse its analysis and, through
// core.Apply's plan-key memo on the shared Program, every variant already
// generated for it.
func (s *Session) Analyze(src string, np int64) (*core.Program, error) {
	key := programKey{src: src, np: np}
	s.mu.Lock()
	if p, ok := s.programs[key]; ok {
		s.mu.Unlock()
		return p, nil
	}
	s.mu.Unlock()
	// Analyze outside the lock (it probe-transforms every site); a racing
	// duplicate analysis of the same source is harmless and the first
	// stored wins.
	p, err := core.Analyze(src, core.AnalyzeOptions{NP: np})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.programs[key]; ok {
		return prev, nil
	}
	s.programs[key] = p
	return p, nil
}

// Query is one plan request: tune this program for this machine.
type Query struct {
	// Source is the untransformed Fortran program.
	Source string `json:"source"`
	// Machine names the target machine model (plan.ByName).
	Machine string `json:"machine"`
	// NP is the simulated rank count; required (the measured search runs
	// the program).
	NP int `json:"np"`
	// FixedK is the fixed-tile baseline the search may never lose to;
	// <= 0 selects the machine's default tile size.
	FixedK int64 `json:"fixed_k,omitempty"`
	// MaxMeasured caps measured candidates; <= 0 selects the tuner
	// default.
	MaxMeasured int `json:"max_measured,omitempty"`
	// Arrays names the observable arrays the oracle compares; empty means
	// the default {"ar"}.
	Arrays []string `json:"arrays,omitempty"`
}

// Result is a plan query's outcome.
type Result struct {
	// Fingerprint is the analysis fingerprint the memo keyed on.
	Fingerprint string `json:"fingerprint"`
	// MemoHit reports whether the plan came from the memo (no search ran).
	MemoHit bool `json:"memo_hit"`
	// Choice is the tuning outcome; Choice.Plan is the replayable plan.
	Choice tune.Choice `json:"choice"`
}

// resolvedQuery is a validated Query bound to the session: the machine
// model, the memoized analysis, the resolved fixed-K baseline, and the
// exact memo key tune.Tune would use for it.
type resolvedQuery struct {
	machine     plan.Machine
	prog        *core.Program
	fixedK      int64
	fingerprint string
	memoKey     string
}

// resolveQuery validates a query and resolves every default the tuner
// would resolve (fixed-K, measurement budget, oracle arrays), yielding the
// memo key the search for it runs under. Plan and PlanRemote resolving
// through one helper is what guarantees a remotely-tuned choice is stored
// under the same key a local search would have used.
func (s *Session) resolveQuery(q Query) (resolvedQuery, error) {
	if q.Source == "" {
		return resolvedQuery{}, queryError{fmt.Errorf("session: query needs a program source")}
	}
	if q.NP < 1 {
		return resolvedQuery{}, queryError{fmt.Errorf("session: query needs np >= 1 (the search simulates the program)")}
	}
	m, err := plan.ByName(q.Machine)
	if err != nil {
		return resolvedQuery{}, queryError{fmt.Errorf("session: %w", err)}
	}
	fixedK := q.FixedK
	if fixedK <= 0 {
		fixedK = m.DefaultK()
	}
	prog, err := s.Analyze(q.Source, int64(q.NP))
	if err != nil {
		return resolvedQuery{}, queryError{fmt.Errorf("session: analyze: %w", err)}
	}
	arrays := q.Arrays
	if len(arrays) == 0 {
		arrays = []string{"ar"}
	}
	fp := core.Fingerprint(prog, m.Name)
	key := tune.MemoKey(fp, tune.Input{NP: q.NP, FixedK: fixedK},
		tune.ResolveMaxMeasured(q.MaxMeasured, prog.TransformableCount()), arrays)
	return resolvedQuery{machine: m, prog: prog, fixedK: fixedK, fingerprint: fp, memoKey: key}, nil
}

// Plan answers one tuning query through the session's memo and store: the
// first query for a (program-shape, machine) pair runs the seeded search,
// repeats are O(memo lookup).
func (s *Session) Plan(q Query) (*Result, error) {
	rq, err := s.resolveQuery(q)
	if err != nil {
		return nil, err
	}
	choices, err := tune.Tune(tune.Input{
		Source:   q.Source,
		Program:  rq.prog,
		NP:       q.NP,
		FixedK:   rq.fixedK,
		Machines: []plan.Machine{rq.machine},
	}, tune.Options{
		MaxMeasured: q.MaxMeasured,
		Arrays:      q.Arrays,
		Engine:      s.engine,
		Store:       s.store,
		Memo:        s.memo,
	})
	if err != nil {
		return nil, err
	}
	s.replayed.Add(int64(choices[0].ReplayedRuns))
	s.certified.Add(int64(choices[0].CertifiedRuns))
	return &Result{
		Fingerprint: rq.fingerprint,
		MemoHit:     choices[0].MemoHit,
		Choice:      choices[0],
	}, nil
}

// PlanRemote answers a tuning query like Plan, but delegates a memo miss to
// the remote callback (a fleet dispatch) instead of searching inline. The
// returned choice is stored in the session memo under the exact key a local
// search would have used, so the repeat of a remotely-tuned query is a
// local memo hit with no dispatch and no compiles. Warm queries never reach
// the callback at all.
func (s *Session) PlanRemote(q Query, remote func(Query) (*Result, error)) (*Result, error) {
	rq, err := s.resolveQuery(q)
	if err != nil {
		return nil, err
	}
	if ch, ok := s.memo.Lookup(rq.memoKey); ok {
		ch.MemoHit = true
		return &Result{Fingerprint: rq.fingerprint, MemoHit: true, Choice: ch}, nil
	}
	res, err := remote(q)
	if err != nil {
		return nil, err
	}
	// The memo stores the search outcome, not the transport history: a
	// remote worker's own memo hit is still a cold answer here.
	res.MemoHit = false
	res.Choice.MemoHit = false
	res.Fingerprint = rq.fingerprint
	s.memo.Store(rq.memoKey, res.Choice)
	return res, nil
}

// ErrQuery marks a Plan/PlanRemote failure caused by the query itself
// (validation, an unknown machine, or a program that does not parse/analyze)
// rather than by the search machinery — the HTTP surfaces map it to 400 and
// everything else to 500.
var ErrQuery = errors.New("bad query")

// queryError tags a query-caused failure as ErrQuery without touching its
// wording; the cause stays reachable through Unwrap.
type queryError struct{ error }

func (e queryError) Is(target error) bool { return target == ErrQuery }
func (e queryError) Unwrap() error        { return e.error }

// Verification is Verify's verdict on one (program, plan) variant.
type Verification struct {
	// Key hashes the (original, transformed) content pair. The verifier's
	// verdict is a function of exactly that pair, so it is the ledger unit.
	Key exec.Key
	// Known reports that the store's ledger already held a clean verdict
	// for Key: nothing was re-proven.
	Known bool
	// Diags are the static verifier's findings; none means clean.
	Diags []verify.Diagnostic
}

// Verify replays pl onto prog (core.Apply, memoized per plan) and statically
// verifies the variant — translation validator plus MPI schedule linter, no
// execution. A clean verdict is recorded in the store's verify ledger when
// it keeps one (both built-in stores do), so a repeat — or a later process
// sharing an on-disk store — answers Known without re-proving anything. The
// error is Apply's: an unappliable plan never produced a variant.
func (s *Session) Verify(prog *core.Program, pl *plan.Plan) (Verification, error) {
	out, rep, err := core.Apply(prog, pl)
	if err != nil {
		return Verification{}, err
	}
	v := Verification{Key: exec.KeyOf(prog.Source() + "\x00" + out)}
	ledger, _ := s.store.(exec.VerifyLedger)
	if ledger != nil && ledger.Verified(v.Key) {
		v.Known = true
		return v, nil
	}
	v.Diags = verify.Variant(prog, pl, out, rep)
	if len(v.Diags) == 0 && ledger != nil {
		ledger.MarkVerified(v.Key)
	}
	return v, nil
}

// VerifyBaseline verifies the fixed-K variant a search for q starts from,
// with the machine and tile-size defaults Plan would resolve.
func (s *Session) VerifyBaseline(q Query) (Verification, error) {
	rq, err := s.resolveQuery(q)
	if err != nil {
		return Verification{}, err
	}
	return s.Verify(rq.prog, plan.Uniform(plan.Decision{K: rq.fixedK}))
}

// Stats bundles the session's store and memo counters (the /stats payload)
// with its Plan searches' replayed and certifying runs (tune.Choice).
type Stats struct {
	Store         exec.StoreStats `json:"store"`
	Memo          tune.MemoStats  `json:"memo"`
	ReplayedRuns  int64           `json:"replayed_runs"`
	CertifiedRuns int64           `json:"certified_runs"`
}

// Stats snapshots the session counters.
func (s *Session) Stats() Stats {
	return Stats{Store: s.store.Stats(), Memo: s.memo.Stats(),
		ReplayedRuns: s.replayed.Load(), CertifiedRuns: s.certified.Load()}
}
