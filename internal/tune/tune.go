// Package tune searches the overlap-plan space automatically, per kernel
// and per machine model. The paper (§2) leaves the tile size K to the user
// and fixes the wait placement (§3.6) and interchange gate (§3.5) as
// heuristics; related work (Cui & Pericàs; Kumar et al.) shows overlap
// decisions are platform-sensitive and that an analytic cost model can seed
// a measured search cheaply. The tuner does exactly that over plan space:
// candidate tile sizes are seeded from the machine's LogGP-flavoured
// profile constants and CPU cost model (eager/rendezvous crossover,
// per-message setup amortization, and the sqrt-form pipeline optimum), then
// refined by a deterministic hill-climb of simulated runs; at the best K,
// the two knob flips that ever win — skip the site, force the §3.5
// interchange gate off — are tried greedily, adopting only strictly better
// settings. The other knobs (the paper's literal §3.6 schedule, the gate
// forced on) stay in plan.Decision, untried: the search never adopted them.
//
// The search is per site. A program with several MPI_ALLTOALL sites first
// gets the uniform search above (every site shares one decision — the best
// uniform plan is recorded as its own baseline), then coordinate descent
// across sites: each site's K and knobs are climbed with the other sites'
// decisions held fixed, iterating over the sites until a whole pass adopts
// nothing or the measurement budget runs out. Candidates are memoized per
// decision vector and aliased by canonical key (core.Canonical), so
// revisiting a decision vector — or reaching the same generated source
// through a knob no-op — costs nothing.
// Every candidate passes through the same Analyze → Apply → run pipeline as
// the harness, and every candidate the choice reports is checked against the
// bit-identical oracle: a candidate that corrupts results is never chosen,
// and the fixed-K default decision is always priced first so the tuned
// choice can never lose to the baseline.
//
// Price, then measure. The search ranks candidates by makespan alone, so it
// prices each through exec.Runner.Price: the first price of a variant by any
// search executes the variant's slice — every charge and MPI operation of the
// program, none of the data nothing times — and records its skeleton,
// watching its in-flight buffers, and every later price — the same variant
// reached by the next machine's search — replays it. A price is exactly the
// makespan an execution has under that machine. A candidate whose recording
// touched an in-flight buffer — the variant overwrites a send buffer, or
// reads a receive buffer, before the wait — is an erroneous MPI program and a
// transform defect: Price refuses it, and the search rejects it like a run
// that failed, under every machine, eager ones included. A priced candidate
// is presumed identical while the search climbs; the three the choice
// reports — the adopted plan, the best uniform one and the fixed-K one — are
// then measured in full (exec.Runner.Measure, the original's way too), and
// one whose data differs from the original's is dropped: the search falls
// back to the next best. A full measurement of a priced variant must record
// what its slice recorded, or the search fails.
//
// Tune is the search and nothing around it: the caller analyzes the program,
// picks the machine, and owns the runner (engine and variant store) every
// measurement goes through. Memoizing outcomes across queries is
// session.Session's job (Memo is its storage), and re-checking adopted plans
// on another engine is the harness's.
package tune

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/mpi"
	"repro/internal/plan"
)

// DefaultMaxMeasured bounds measured candidates per (kernel, machine) for a
// single-site kernel: the K climb plus headroom for the knob stage.
const DefaultMaxMeasured = 14

// PerSiteExtraMeasured is the additional default budget granted for every
// MPI_ALLTOALL site beyond the first: the coordinate-descent stage needs
// its own headroom to move each site off the uniform incumbent.
const PerSiteExtraMeasured = 10

// maxDescentPasses bounds the coordinate-descent sweeps over the sites; the
// descent stops earlier at the first pass that adopts nothing.
const maxDescentPasses = 4

// resolveMaxMeasured resolves a requested measured-candidate budget for a
// search over the given number of transformable sites: a non-positive
// request selects DefaultMaxMeasured plus PerSiteExtraMeasured per site
// beyond the first.
func resolveMaxMeasured(requested, sites int) int {
	if requested > 0 {
		return requested
	}
	if sites < 1 {
		sites = 1
	}
	return DefaultMaxMeasured + PerSiteExtraMeasured*(sites-1)
}

// Params are the search parameters besides the program and the machine.
type Params struct {
	NP     int   // rank count
	FixedK int64 // the fixed tile size used as the search baseline
	// MaxMeasured caps simulated pre-push runs (seeds plus refinement and
	// knob flips); <= 0 selects DefaultMaxMeasured plus PerSiteExtraMeasured
	// per site beyond the first.
	MaxMeasured int
	// Arrays names the observable arrays the oracle compares (besides all
	// printed output); empty means {"ar"}.
	Arrays []string
}

// Candidate is one evaluated whole-plan decision vector under one machine.
// Decisions is aligned with Choice.Sites (one decision per transformable
// site, in program order); Uniform marks vectors whose sites all share one
// decision.
type Candidate struct {
	Decisions []plan.Decision `json:"decisions"`
	Uniform   bool            `json:"uniform"`
	PrepushNs int64           `json:"prepush_ns"`
	Speedup   float64         `json:"speedup"`
	// Identical: the candidate was measured in full and its data is the
	// original's (the identity plan's is by definition). A candidate that was
	// only priced reports false: the search measures in full the adopted,
	// best uniform and fixed-K candidates only.
	Identical bool `json:"identical"`
	Seeded    bool `json:"seeded"` // proposed by the analytic model
}

// cand is the search's record of a candidate: the candidate as the choice
// reports it, its variant's source, and whether a full measurement found its
// data to differ from the original's. The climb presumes every priced
// candidate identical; prove refutes it.
type cand struct {
	Candidate
	src     string
	refuted bool
}

// SiteChoice is the tuning outcome for one MPI_ALLTOALL site: the chosen
// decision plus the analytic facts that seeded its search.
type SiteChoice struct {
	Site     string        `json:"site"`
	Decision plan.Decision `json:"decision"`
	// SeedKs are the tile sizes the machine's analytic model proposed for
	// this site (before measurement).
	SeedKs        []int64 `json:"seed_ks,omitempty"`
	PartitionSize int64   `json:"partition_size,omitempty"`
	TripCount     int64   `json:"trip_count,omitempty"`
}

// Choice is the tuning outcome for one (kernel, machine) pair.
type Choice struct {
	Machine string `json:"machine"`
	Offload bool   `json:"offload"`
	// Chosen is the first site's decision — the whole plan for the
	// single-site kernels that dominate the corpus; multi-site plans are in
	// Plan/Sites.
	Chosen plan.Decision `json:"chosen"`
	// Plan is the full chosen plan, one decision per site, replayable with
	// core.Apply (or compuniformer -apply-plan).
	Plan *plan.Plan `json:"plan"`
	// Sites carries the per-site decisions and analytic seeds, in program
	// order.
	Sites []SiteChoice `json:"sites"`
	// Divergent marks a chosen plan whose sites do not all share one
	// decision — the win a uniform tuner cannot express.
	Divergent bool `json:"divergent"`
	// UniformSpeedup is the best measured speedup among uniform candidates
	// (every site sharing one decision) — the baseline the per-site descent
	// must beat for Divergent to matter.
	UniformSpeedup float64     `json:"best_uniform_speedup"`
	Speedup        float64     `json:"tuned_speedup"`
	PrepushNs      int64       `json:"tuned_prepush_ns"`
	OriginalNs     int64       `json:"original_ns"`
	FixedK         int64       `json:"fixed_k"`
	FixedSpeedup   float64     `json:"fixed_speedup"`
	Evaluations    int         `json:"evaluations"`   // measured pre-push runs
	SearchSimNs    int64       `json:"search_sim_ns"` // simulated time spent searching
	Candidates     []Candidate `json:"candidates"`
	// ReplayedRuns counts the evaluations answered by replaying a variant's
	// skeleton, and SlicedRuns those answered by executing its slice (see the
	// package comment). Which search reached a variant first decides them:
	// economics, like cache hits; 0 on a memo hit, and SlicedRuns 0 on the
	// walk engine.
	ReplayedRuns int `json:"replayed_runs,omitempty"`
	SlicedRuns   int `json:"sliced_runs,omitempty"`
}

// FixedKError is Tune's answer when the fixed-K baseline does not transform
// every site: with no baseline, the never-lose gate has nothing to hold the
// search to. It is the query's fault, not the search's, and it names the
// uniform tile sizes, from the sites' ladders, at which every site fires.
type FixedKError struct {
	Machine  string  `json:"machine"`
	FixedK   int64   `json:"fixed_k"`
	Sites    int     `json:"sites"`
	FiringKs []int64 `json:"firing_ks"`
}

func (e *FixedKError) Error() string {
	return fmt.Sprintf("tune: transform did not fire on all %d site(s) at fixed K=%d under %s",
		e.Sites, e.FixedK, e.Machine)
}

// siteState is one transformable site's search facts.
type siteState struct {
	key    string
	geo    geom
	ladder []int64
}

// Tune runs the seeded, measured search for the analyzed program under
// machine m, every run going through runner: the uniform stage first (all
// sites share one decision — the historical single-site search, and the
// best-uniform baseline), then coordinate descent across the sites. The
// search is fully deterministic: the same program, machine and parameters
// always produce the same choice (candidates are visited in sorted order,
// ties prefer the default knobs and then the smaller K); the runner's store
// decides only what is replayed rather than executed. Transformed variants
// are shared across calls through prog's memo of texts by canonical key
// (core.Canon.Text), so a candidate text is generated at most once per
// program.
//
// The search owns the memory its executions share (runner's Recycler is
// replaced by one of its own), and keeps none of it once it returns. ctx
// carries the caller's profiler labels: core.Canonical and Canon.Text run
// under layer=apply, and every measurement under why=candidate.
func Tune(ctx context.Context, prog *core.Program, m plan.Machine, p Params, runner exec.Runner) (Choice, error) {
	return tune(ctx, prog, m, p, runner, []knob{
		// "Don't" leads: declining the transformation outright is the most
		// consequential move on already-overlapped machines, where every
		// transformed variant loses. Toggling skip off a skipped incumbent
		// re-enters the transformed space at the default knobs.
		flip(func(d *plan.Decision) { d.Skip = !d.Skip }),
		flip(func(d *plan.Decision) { d.Interchange = plan.InterchangeOff }),
	})
}

// tune is Tune with the knob stage's moves as a parameter, so the tests can
// hold the search to the one that also tried the flips that never win.
func tune(ctx context.Context, prog *core.Program, m plan.Machine, p Params, runner exec.Runner, knobs []knob) (Choice, error) {
	if len(p.Arrays) == 0 {
		p.Arrays = []string{"ar"}
	}
	sites := siteStates(prog)
	if len(sites) == 0 {
		return Choice{}, fmt.Errorf("tune: transform does not fire on this kernel: %s", firstReason(prog))
	}
	runner.Recycler = new(interp.Recycler)
	s := &search{
		ctx: ctx, prog: prog, src: prog.Source(), p: p, machine: m, sites: sites, knobs: knobs,
		maxM:     resolveMaxMeasured(p.MaxMeasured, len(sites)),
		runner:   runner,
		measured: map[string]*cand{}, byCanon: map[string]*cand{},
	}
	// Every verdict compares against this measurement under this machine.
	orig, _, err := s.measureSource(s.src)
	if err != nil {
		return Choice{}, fmt.Errorf("tune: original run under %s: %w", m.Name, err)
	}
	s.orig, s.origNs = orig, int64(orig.Elapsed())
	return s.run()
}

// geom carries the kernel facts the analytic seeding needs.
type geom struct {
	psz          int64 // partition size in last-dimension units
	trip         int64 // tiled-loop trip count (0 when unknown)
	perIterBytes int64 // bytes of one point-to-point message per tiled iteration
}

// siteStates harvests every transformable site's facts from the analysis,
// in program order. The candidate ladder per site: divisors of the
// partition size (the legality constraint of the subset-send and indirect
// schedules) unioned with divisors of the tiled-loop trip count (the
// natural rungs when the tiled loop is not the partitioned dimension).
func siteStates(prog *core.Program) []siteState {
	var out []siteState
	for i := range prog.Sites {
		s := &prog.Sites[i]
		if !s.Transformable {
			continue
		}
		g := geom{psz: s.PartitionSize, trip: s.TripCount, perIterBytes: s.PerIterBytes}
		out = append(out, siteState{
			key:    s.Key(),
			geo:    g,
			ladder: mergeLadders(divisors(g.psz), divisors(g.trip)),
		})
	}
	return out
}

func firstReason(prog *core.Program) string {
	for _, s := range prog.Sites {
		if !s.Transformable {
			return s.Reason
		}
	}
	return "no MPI_ALLTOALL site found"
}

// search carries one Tune call's evaluation state.
type search struct {
	ctx     context.Context // the caller's profiler labels
	prog    *core.Program
	src     string // the program's untransformed source
	p       Params
	machine plan.Machine
	sites   []siteState
	maxM    int
	runner  exec.Runner
	knobs   []knob // the knob stage's moves, in order

	orig   *interp.Result
	origNs int64

	measured map[string]*cand // by whole-plan key; nil = rejected/failed
	byCanon  map[string]*cand // by core.Canonical key: knob no-ops alias before a rewrite
	order    []*cand          // unique measured candidates, visit order
	runs     int
	replays  int // runs answered by a replay
	slices   int // runs answered by executing a slice
}

// run is Tune's search once the original has been executed.
func (s *search) run() (Choice, error) {
	m, sites, fixedK := s.machine, s.sites, s.p.FixedK
	ch := Choice{
		Machine: m.Name, Offload: m.Profile.Offload,
		OriginalNs: s.origNs, FixedK: fixedK,
	}
	// Uniform ladder: the union of every site's rungs. A rung one site
	// rejects at evaluation time is skipped without costing a measurement.
	var uniformLadder []int64
	for _, st := range sites {
		uniformLadder = mergeLadders(uniformLadder, st.ladder)
	}

	// The identity plan — skip every site — is candidate zero. It costs no
	// measurement (the original run is already in hand), anchors the search
	// at speedup exactly 1.0, and makes "tuned never loses to the original"
	// true by construction: best() prefers the earliest candidate on ties,
	// so a transformed plan is chosen only when it strictly beats identity.
	// Registering it under its canonical key also lets any vector that
	// rewrites nothing (every site skipped) alias it for free.
	s.registerIdentity()

	// The fixed-K default decision is measured next so the tuned choice can
	// also never lose to the fixed-K baseline, then the analytic seeds.
	fixed := plan.Decision{K: fixedK}.Normalize()
	fds := uniformVecOf(fixed, len(sites))
	fc := s.evaluate(fds, true)
	if fc == nil {
		// Fatal only when there is nothing to tune; a simulation failure at
		// the fixed K still lets the seeds find a plan (verdicts are cached,
		// so the re-check is free).
		if !s.fires(fds) {
			var firing []int64
			for _, k := range uniformLadder {
				if s.fires(uniformVecOf(plan.Decision{K: k}.Normalize(), len(sites))) {
					firing = append(firing, k)
				}
			}
			return Choice{}, &FixedKError{Machine: m.Name, FixedK: fixedK, Sites: len(sites), FiringKs: firing}
		}
	}
	// Per-site analytic seeds, snapped onto each site's own ladder; the
	// uniform stage proposes their union applied to every site at once.
	siteSeeds := make([][]int64, len(sites))
	seedSet := map[int64]bool{}
	for i, st := range sites {
		siteSeeds[i] = seedKs(m, &st.geo, fixedK, st.ladder)
		for _, k := range siteSeeds[i] {
			seedSet[k] = true
		}
	}
	for _, k := range sortedKeys(seedSet) {
		s.evaluate(withK(fds, -1, k), true)
	}
	// Refinement: hill-climb the divisor ladder from the best decision so
	// far until no neighbor improves or the measurement budget runs out.
	s.climbK(-1, uniformLadder)
	// Knob stage: each non-K knob flip gets its own K-climb, because a flip
	// can be a no-op at the incumbent K (the interchange gate, for one, only
	// disagrees with "auto" on part of the ladder) — such no-op rungs alias
	// earlier candidates and cost nothing, so the climb walks through them
	// for free until the flip starts mattering. A flipped plan displaces the
	// incumbent only when strictly better.
	s.climbKnobs(-1, uniformLadder)

	// Coordinate descent across sites: climb each site's K (and knobs) with
	// the others held at the incumbent, iterating until a whole pass adopts
	// nothing. Single-site kernels are already done — their per-site moves
	// would all alias the uniform stage.
	if len(sites) > 1 {
		for pass := 0; pass < maxDescentPasses && s.runs < s.maxM; pass++ {
			before := s.best(anyCand)
			for si := range sites {
				if pass == 0 {
					if b := s.best(anyCand); b != nil {
						for _, k := range siteSeeds[si] {
							s.evaluate(withK(b.Decisions, si, k), true)
						}
					}
				}
				s.climbK(si, sites[si].ladder)
				s.climbKnobs(si, sites[si].ladder)
			}
			if s.best(anyCand) == before {
				break
			}
		}
	}

	winner, err := s.proven(anyCand)
	if err != nil {
		return Choice{}, err
	}
	if winner == nil {
		return Choice{}, fmt.Errorf("tune: no valid plan found under %s (fixed K=%d)", m.Name, fixedK)
	}
	uniform, err := s.proven(func(c *cand) bool { return c.Uniform })
	if err != nil {
		return Choice{}, err
	}
	if uniform != nil {
		ch.UniformSpeedup = uniform.Speedup
	}
	if fc != nil {
		if err := s.prove(fc); err != nil {
			return Choice{}, err
		}
		ch.FixedSpeedup = fc.Speedup
	}
	ch.ReplayedRuns, ch.SlicedRuns = s.replays, s.slices
	ch.Chosen = winner.Decisions[0]
	ch.Plan = s.buildPlan(winner.Decisions)
	ch.Plan.Machine = m.Name
	ch.Divergent = !winner.Uniform
	ch.Speedup = winner.Speedup
	ch.PrepushNs = winner.PrepushNs
	for i, st := range sites {
		ch.Sites = append(ch.Sites, SiteChoice{
			Site: st.key, Decision: winner.Decisions[i], SeedKs: siteSeeds[i],
			PartitionSize: st.geo.psz, TripCount: st.geo.trip,
		})
	}
	// Evaluations reports the budget actually consumed (a run whose
	// simulation failed still spent a slot); SearchSimNs sums the
	// successful runs' simulated makespans.
	ch.Evaluations = s.runs
	for _, c := range s.order {
		ch.Candidates = append(ch.Candidates, c.Candidate)
		ch.SearchSimNs += c.PrepushNs
	}
	return ch, nil
}

// proven returns the best candidate that keep admits, proven identical: each
// best candidate whose full measurement differs from the original is refuted
// in turn. nil when keep admits none that is identical.
func (s *search) proven(keep func(*cand) bool) (*cand, error) {
	for {
		best := s.best(keep)
		if best == nil {
			return nil, nil
		}
		if err := s.prove(best); err != nil || best.Identical {
			return best, err
		}
	}
}

// prove measures priced candidate c in full, once, and sets c.Identical when
// its data is the original's, c.refuted when it differs. The identity
// candidate is the original. A full measurement that fails, or whose makespan
// is not the price, is an error: the price was not the program's.
func (s *search) prove(c *cand) error {
	if c.Identical || c.refuted {
		return nil
	}
	res, _, err := s.measureSource(c.src)
	if err == nil && int64(res.Elapsed()) != c.PrepushNs {
		err = fmt.Errorf("measured %d ns, priced %d ns", int64(res.Elapsed()), c.PrepushNs)
	}
	if err != nil {
		return fmt.Errorf("tune: candidate %s under %s: %w", s.vecKey(c.Decisions), s.machine.Name, err)
	}
	c.Identical, _ = interp.SameObservable(s.orig, res, s.p.Arrays...)
	c.refuted = !c.Identical
	return nil
}

// registerIdentity records the skip-every-site vector as a measured
// candidate without spending a run: its makespan is the original's by
// definition (core.Apply returns the original bytes for a skip-all plan),
// its speedup exactly 1.0, and the oracle trivially passes.
func (s *search) registerIdentity() {
	ds := normVec(uniformVecOf(plan.Identity(), len(s.sites)))
	c := &cand{Candidate: Candidate{
		Decisions: ds, Uniform: true,
		PrepushNs: s.origNs, Speedup: 1.0, Identical: true, Seeded: true,
	}, src: s.src}
	s.measured[s.vecKey(ds)] = c
	if cn, err := core.Canonical(s.prog, s.buildPlan(ds)); err == nil {
		s.byCanon[cn.Key] = c
	}
	s.order = append(s.order, c)
}

// skipCount returns how many sites of the vector decline transformation.
func skipCount(ds []plan.Decision) int {
	n := 0
	for _, d := range ds {
		if d.Skip {
			n++
		}
	}
	return n
}

// fires reports whether the decision vector transforms every site.
func (s *search) fires(ds []plan.Decision) bool {
	cn, err := core.Canonical(s.prog, s.buildPlan(ds))
	return err == nil && cn.Transformed == len(s.sites)
}

// buildPlan materializes a decision vector as a site-keyed plan (sites in
// program order; the first site's decision doubles as the default).
func (s *search) buildPlan(ds []plan.Decision) *plan.Plan {
	p := &plan.Plan{Schema: plan.Schema, Default: ds[0]}
	for i, st := range s.sites {
		p.Set(st.key, ds[i])
	}
	return p
}

// vecKey canonicalizes a decision vector for memo keys.
func (s *search) vecKey(ds []plan.Decision) string { return s.buildPlan(ds).Key() }

// normVec normalizes every decision of a vector.
func normVec(ds []plan.Decision) []plan.Decision {
	out := make([]plan.Decision, len(ds))
	for i, d := range ds {
		out[i] = d.Normalize()
	}
	return out
}

// uniformVecOf repeats one decision across n sites.
func uniformVecOf(d plan.Decision, n int) []plan.Decision {
	out := make([]plan.Decision, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// isUniform reports whether every site shares one decision.
func isUniform(ds []plan.Decision) bool {
	for i := 1; i < len(ds); i++ {
		if ds[i] != ds[0] {
			return false
		}
	}
	return true
}

// withK returns a copy of the vector with site si's tile size set to k;
// si < 0 sets every site (the uniform axis).
func withK(ds []plan.Decision, si int, k int64) []plan.Decision {
	out := append([]plan.Decision(nil), ds...)
	if si < 0 {
		for i := range out {
			out[i].K = k
		}
		return out
	}
	out[si].K = k
	return out
}

// withFlip returns a copy of the vector with the knob flip f applied to
// site si (si < 0 flips every site).
func withFlip(ds []plan.Decision, si int, f func(*plan.Decision)) []plan.Decision {
	out := append([]plan.Decision(nil), ds...)
	if si < 0 {
		for i := range out {
			f(&out[i])
			out[i] = out[i].Normalize()
		}
		return out
	}
	f(&out[si])
	out[si] = out[si].Normalize()
	return out
}

// axisOf maps a site axis onto the vector index carrying its K (< 0, the
// uniform axis, reads site 0 — all sites agree there by construction).
func axisOf(si int) int {
	if si < 0 {
		return 0
	}
	return si
}

// evaluate runs the pre-push variant under the decision vector and applies
// the oracle. A vector the transformation rejects on any site yields no
// candidate and costs nothing — not even a rewrite: core.Canonical predicts
// it. A vector whose canonical form is an already-measured one's aliases that
// measurement for free, without a rewrite: two plans share a canonical key
// exactly when their texts are byte-identical (knob flips that change nothing
// — e.g. forcing interchange off where it never fired — collapse onto the
// earlier candidate). A new canonical form's text is Canon.Text's: one
// decision per vector.
func (s *search) evaluate(ds []plan.Decision, seeded bool) *cand {
	ds = normVec(ds)
	key := s.vecKey(ds)
	if c, ok := s.measured[key]; ok {
		return c
	}
	var cn core.Canon
	var src string
	var err error
	pprof.Do(s.ctx, pprof.Labels("layer", "apply"), func(context.Context) {
		if cn, err = core.Canonical(s.prog, s.buildPlan(ds)); err != nil || s.byCanon[cn.Key] != nil ||
			cn.Transformed < len(s.sites)-skipCount(ds) {
			return
		}
		src, err = cn.Text()
	})
	if err != nil || cn.Transformed < len(s.sites)-skipCount(ds) {
		// A plan leaving any non-skipped site untransformed is not a
		// candidate: the comparison must hold the set of rewritten sites to
		// exactly what the plan asked for. Deliberately skipped sites are
		// fine — their identity is the decision.
		s.measured[key] = nil
		return nil
	}
	if c := s.byCanon[cn.Key]; c != nil {
		s.measured[key] = c
		return c
	}
	if s.runs >= s.maxM {
		return nil
	}
	c := s.measure(src, ds, seeded)
	s.measured[key] = c
	if c != nil {
		s.byCanon[cn.Key] = c
	}
	return c
}

// measure spends one evaluation on the variant src of decision vector ds: a
// replay when some search recorded the variant before, under whatever
// machine, and its skeleton certifies; else an execution of its slice (or,
// for a variant without one, of the variant). A variant Price refuses — it
// failed, or touched an in-flight buffer — is no candidate. The candidate is
// presumed identical until prove says otherwise.
func (s *search) measure(src string, ds []plan.Decision, seeded bool) *cand {
	s.runs++
	var st *mpi.RunStats
	var how exec.Answer
	var err error
	pprof.Do(s.ctx, pprof.Labels("why", "candidate"), func(ctx context.Context) {
		st, how, err = s.runner.Price(ctx, src, s.p.NP, s.machine.Costs, s.machine.Profile)
	})
	if err != nil {
		return nil
	}
	switch how {
	case exec.Replayed:
		s.replays++
	case exec.Sliced:
		s.slices++
	}
	c := &cand{Candidate: Candidate{Decisions: ds, Uniform: isUniform(ds), Seeded: seeded}, src: src}
	c.PrepushNs = int64(st.End)
	if c.PrepushNs > 0 {
		c.Speedup = float64(s.origNs) / float64(c.PrepushNs)
	}
	s.order = append(s.order, c)
	return c
}

// measureSource measures src in full on the search's runner, labelled a
// candidate.
func (s *search) measureSource(src string) (res *interp.Result, replayed bool, err error) {
	pprof.Do(s.ctx, pprof.Labels("why", "candidate"), func(ctx context.Context) {
		res, replayed, err = s.runner.Measure(ctx, src, s.p.NP, s.machine.Costs, s.machine.Profile)
	})
	return res, replayed, err
}

// climbK hill-climbs the ladder around the best decision vector, varying
// only axis si's K (the other sites and knobs ride along from the
// incumbent).
func (s *search) climbK(si int, ladder []int64) {
	for {
		best := s.best(anyCand)
		if best == nil {
			break
		}
		curK := best.Decisions[axisOf(si)].K
		// Neighbor rungs: for an on-ladder best, the rungs either side; for
		// an off-ladder best (a fixed K dividing neither the partition size
		// nor the trip count), the rungs bracketing it.
		i := sort.Search(len(ladder), func(j int) bool { return ladder[j] >= curK })
		neighbors := []int{i - 1, i}
		if i < len(ladder) && ladder[i] == curK {
			neighbors = []int{i - 1, i + 1}
		}
		improved := false
		for _, j := range neighbors {
			if j < 0 || j >= len(ladder) {
				continue
			}
			if c := s.evaluate(withK(best.Decisions, si, ladder[j]), false); c != nil && c.Speedup > best.Speedup {
				improved = true
			}
		}
		if !improved || s.runs >= s.maxM {
			break
		}
	}
}

// A knob is one move of the knob stage on axis si (< 0: every site at once).
type knob func(s *search, si int, ladder []int64)

// climbKnobs makes the search's knob moves on axis si in order, while the
// measurement budget lasts.
func (s *search) climbKnobs(si int, ladder []int64) {
	for _, move := range s.knobs {
		if s.runs >= s.maxM {
			break
		}
		move(s, si, ladder)
	}
}

// flip is the knob move that applies f to the incumbent on axis si and
// climbs K within the flipped variant (climbVariant).
func flip(f func(*plan.Decision)) knob {
	return func(s *search, si int, ladder []int64) {
		best := s.best(anyCand)
		if ds := withFlip(best.Decisions, si, f); !slices.Equal(ds, best.Decisions) {
			s.climbVariant(ds, si, ladder)
		}
	}
}

// climbVariant walks axis si's K outward along the ladder in both
// directions from the variant's starting rung, with everything else held
// fixed. A rung where the flip is a codegen no-op aliases an earlier
// candidate (equal speedup, zero cost against the budget) and the walk
// continues through it — that is how the climb crosses the region where,
// say, the interchange gate's own verdict coincides with the forced knob —
// as does a rung the transform rejects (also free). A direction stops at
// the first genuinely measured rung that fails to improve the variant's
// local best, or when the budget runs out. The global best picks up any
// strictly better candidate through the shared measurement pool.
func (s *search) climbVariant(ds []plan.Decision, si int, ladder []int64) {
	cur := s.evaluate(ds, false)
	if cur == nil {
		return
	}
	curSp := cur.Speedup
	k := ds[axisOf(si)].K
	i := sort.Search(len(ladder), func(j int) bool { return ladder[j] >= k })
	starts := [2]int{i - 1, i + 1}
	if i >= len(ladder) || ladder[i] != k {
		starts = [2]int{i - 1, i} // off-ladder start: bracket it
	}
	for dir, j := range starts {
		step := 1
		if dir == 0 {
			step = -1
		}
		for ; j >= 0 && j < len(ladder); j += step {
			if s.runs >= s.maxM {
				return
			}
			nd := withK(ds, si, ladder[j])
			c := s.evaluate(nd, false)
			if c == nil {
				continue // rejected or failed rung: free, keep walking
			}
			aliased := !slices.Equal(c.Decisions, normVec(nd))
			if c.Speedup > curSp {
				curSp = c.Speedup
			} else if !aliased {
				break
			}
		}
	}
}

// best returns the candidate keep admits with the highest speedup, of those
// no full measurement refuted. Ties prefer the candidate measured earliest —
// the fixed-K default-knob decision first, then seeds, then refinements — so
// a knob flip, retile, or per-site divergence displaces the incumbent only
// when strictly better.
func (s *search) best(keep func(*cand) bool) *cand {
	var best *cand
	for _, c := range s.order {
		if !c.refuted && keep(c) && (best == nil || c.Speedup > best.Speedup) {
			best = c
		}
	}
	return best
}

// anyCand admits every candidate.
func anyCand(*cand) bool { return true }

// sortedKeys returns the map's keys in ascending order.
func sortedKeys(set map[int64]bool) []int64 {
	out := make([]int64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// seedKs proposes candidate tile sizes from the machine's analytic cost
// model, snapped onto the divisor ladder (every rung is legal for every
// pattern). Seeds, in model terms:
//
//   - the eager/rendezvous crossover: the largest K whose per-tile message
//     stays under the profile's eager threshold, and the next rung above it
//     (the protocol switch is the sharpest discontinuity in transfer cost);
//   - setup amortization: the smallest K whose wire time covers ~4× the
//     per-message setup (send overhead + latency), below which overheads
//     dominate;
//   - the pipeline optimum K* = sqrt(trip · setup / (G · bytesPerIter)),
//     balancing the per-tile setup against the exposed drain of the last
//     tile (the classic two-term pipelining tradeoff);
//   - the compute-balance rung: the tile whose computation hides one
//     message's setup+latency (finer tiles stall the pipeline);
//   - the fixed K (so the tuned result can never lose to the baseline) and
//     the full partition (one tile per owner, the coarsest useful point).
func seedKs(m plan.Machine, geo *geom, fixedK int64, ladder []int64) []int64 {
	prof, costs := m.Profile, m.Costs
	set := map[int64]bool{}
	snap := func(k int64) {
		if k < 1 {
			k = 1
		}
		lo, hi := snapToLadder(ladder, k)
		set[lo] = true
		set[hi] = true
	}
	set[fixedK] = true
	if len(ladder) > 0 {
		set[ladder[len(ladder)-1]] = true // whole partition
	}
	b := geo.perIterBytes
	if b > 0 {
		snap(prof.EagerThreshold / b)
		setup := float64(prof.OSend) + float64(prof.Latency)
		if prof.GapNsPerByte > 0 {
			snap(int64(4 * setup / (prof.GapNsPerByte * float64(b))))
			if geo.trip > 0 {
				snap(int64(math.Sqrt(float64(geo.trip) * setup / (prof.GapNsPerByte * float64(b)))))
			}
		}
		perIterCompute := float64(costs.Store+costs.LoopIter+2*costs.Op) * float64(b) / 4
		if perIterCompute > 0 {
			snap(int64(setup / perIterCompute))
		}
	}
	return sortedKeys(set)
}

// divisors returns all divisors of n in ascending order (nil when n < 1).
func divisors(n int64) []int64 {
	var out []int64
	for d := int64(1); d*d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
			if d != n/d {
				out = append(out, n/d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mergeLadders unions two sorted rung lists into one sorted, deduplicated
// ladder.
func mergeLadders(a, b []int64) []int64 {
	set := map[int64]bool{}
	for _, k := range a {
		set[k] = true
	}
	for _, k := range b {
		set[k] = true
	}
	return sortedKeys(set)
}

// snapToLadder returns the nearest rungs at or below and at or above k
// (clamped to the ladder ends).
func snapToLadder(ladder []int64, k int64) (int64, int64) {
	if len(ladder) == 0 {
		return k, k
	}
	i := sort.Search(len(ladder), func(i int) bool { return ladder[i] >= k })
	hi := i
	if hi == len(ladder) {
		hi = len(ladder) - 1
	}
	lo := i
	if lo > 0 && (lo == len(ladder) || ladder[lo] != k) {
		lo--
	}
	return ladder[lo], ladder[hi]
}
