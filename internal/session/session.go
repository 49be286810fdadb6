// Package session scopes the pipeline's shared state — the compiled-variant
// store, the plan memo, cached analyses and the execution engine — into one
// injected object instead of package globals. A Session is what a long-lived
// service holds: repeat tuning queries hit the memo, repeat variant
// executions hit the store, and two sessions in one process never share
// counters. The zero-configuration default is a fresh in-memory store, an
// empty memo and the bytecode engine.
//
// Tune is the one road into the tuner, for plan queries (Plan) and harness
// sweeps alike. Its memo key is complete: the analysis fingerprint, the
// machine model by value (name, network profile, CPU cost model) and every
// search parameter, so a memo hit is the choice a fresh search would make
// and any caller may memoize through its session.
package session

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/netsim"
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
	return &Session{
		engine:   engine,
		store:    store,
		memo:     tune.NewMemo(),
		programs: map[programKey]*core.Program{},
	}, nil
}

// Engine returns the session's execution engine.
func (s *Session) Engine() exec.Engine { return s.engine }

// Store returns the session's variant store.
func (s *Session) Store() exec.VariantStore { return s.store }

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
	// Analyze outside the lock (it checks every site); a racing
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

// Result is one search's outcome, memoized or fresh.
type Result struct {
	// Fingerprint is the analysis fingerprint: the program-shape part of the
	// memo key.
	Fingerprint string `json:"fingerprint"`
	// MemoHit reports whether the plan came from the memo (no search ran;
	// the recorded measurements are the original search's).
	MemoHit bool `json:"memo_hit"`
	// Choice is the tuning outcome; Choice.Plan is the replayable plan.
	Choice tune.Choice `json:"choice"`
}

// Plan answers one tuning query through Tune: the first query for a
// (program shape, machine, search parameters) tuple runs the seeded search,
// repeats are O(memo lookup).
func (s *Session) Plan(q Query) (*Result, error) {
	if q.Source == "" {
		return nil, queryError{fmt.Errorf("session: query needs a program source")}
	}
	if q.NP < 1 {
		return nil, queryError{fmt.Errorf("session: query needs np >= 1 (the search simulates the program)")}
	}
	m, err := plan.ByName(q.Machine)
	if err != nil {
		return nil, queryError{fmt.Errorf("session: %w", err)}
	}
	fixedK := q.FixedK
	if fixedK <= 0 {
		fixedK = m.DefaultK()
	}
	prog, err := s.Analyze(q.Source, int64(q.NP))
	if err != nil {
		return nil, queryError{fmt.Errorf("session: analyze: %w", err)}
	}
	return s.Tune(prog, m, tune.Params{NP: q.NP, FixedK: fixedK, MaxMeasured: q.MaxMeasured, Arrays: q.Arrays})
}

// memoKey is everything a search's outcome depends on: the program shape
// (core.Fingerprint — site facts, analysis rank count, normalized code), the
// machine model by value and the search parameters. Array order is not a
// parameter, so arrays are sorted before joining; every non-positive budget
// selects the same default.
type memoKey struct {
	fingerprint string
	machine     string
	profile     netsim.Profile
	costs       interp.CostModel
	np          int
	fixedK      int64
	maxMeasured int
	arrays      string
}

func newMemoKey(fingerprint string, m plan.Machine, p tune.Params) memoKey {
	arrays := strings.Join(p.Arrays, ",")
	if len(p.Arrays) > 1 {
		sorted := append([]string(nil), p.Arrays...)
		sort.Strings(sorted)
		arrays = strings.Join(sorted, ",")
	}
	return memoKey{
		fingerprint: fingerprint, machine: m.Name, profile: m.Profile, costs: m.Costs,
		np: p.NP, fixedK: p.FixedK, maxMeasured: max(p.MaxMeasured, 0), arrays: arrays,
	}
}

// Tune answers one search through the session's plan memo: a hit returns
// the stored choice (no search, no runs, zero replayed and certified runs);
// a miss runs tune.Tune on the session's runner, stores the choice and adds
// its replayed and certified runs to the session counters.
func (s *Session) Tune(prog *core.Program, m plan.Machine, p tune.Params) (*Result, error) {
	fp := core.Fingerprint(prog, m.Name)
	key := newMemoKey(fp, m, p)
	if ch, ok := s.memo.Lookup(key); ok {
		ch.ReplayedRuns, ch.CertifiedRuns = 0, 0
		return &Result{Fingerprint: fp, MemoHit: true, Choice: ch}, nil
	}
	ch, err := tune.Tune(prog, m, p, s.Runner())
	if err != nil {
		return nil, err
	}
	s.memo.Store(key, ch)
	s.replayed.Add(int64(ch.ReplayedRuns))
	s.certified.Add(int64(ch.CertifiedRuns))
	return &Result{Fingerprint: fp, Choice: ch}, nil
}

// ErrQuery marks a Plan failure caused by the query itself
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
