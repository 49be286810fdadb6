package interp

import (
	"fmt"
	"sort"

	"repro/internal/ftn"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// Program is a loaded, runnable program.
type Program struct {
	File  *ftn.File
	Costs CostModel
	main  *unitSyms   // the program unit's name table
	subs  []*unitSyms // the subroutines', in file order
}

// Load parses src into a runnable program with default costs. The parsed
// file is the Program's own (nothing else holds it), so Load resolves every
// name to its slot here, once, by annotating the tree; all ranks of all runs
// then only read it.
func Load(src string) (*Program, error) {
	f, err := ftn.Parse(src)
	if err != nil {
		return nil, err
	}
	if f.Program() == nil {
		return nil, fmt.Errorf("interp: no program unit")
	}
	p := &Program{File: f, Costs: DefaultCosts(), main: resolve(f.Program())}
	for _, u := range f.Units {
		if u.Kind == ftn.SubroutineUnit {
			p.subs = append(p.subs, resolve(u))
		}
	}
	return p, nil
}

// subroutine returns the first subroutine of that name, or nil.
func (p *Program) subroutine(name string) *unitSyms {
	for _, us := range p.subs {
		if us.unit.Name == name {
			return us
		}
	}
	return nil
}

// Result is the outcome of one simulated run.
type Result struct {
	Stats  *mpi.RunStats
	Output [][]string               // per-rank PRINT lines
	Arrays []map[string]interface{} // per-rank final arrays ([]int64 / []float64; a replay's: ArrayDigest)
	Errors []error                  // per-rank runtime errors (nil entries when clean)
}

// Elapsed returns the virtual completion time.
func (r *Result) Elapsed() netsim.Time { return r.Stats.End }

// AvgRankTimes returns the average per-rank compute and blocked (waiting)
// times — the split the paper's Figure 1 discussion is about: pre-pushing
// converts blocked time into overlapped compute.
func (r *Result) AvgRankTimes() (compute, blocked netsim.Time) {
	if r.Stats == nil || len(r.Stats.PerRank) == 0 {
		return 0, 0
	}
	for _, rs := range r.Stats.PerRank {
		compute += rs.Compute
		blocked += rs.Blocked
	}
	n := netsim.Time(len(r.Stats.PerRank))
	return compute / n, blocked / n
}

// OutputLines flattens per-rank output with rank prefixes, sorted by rank
// (deterministic across schedulers).
func (r *Result) OutputLines() []string {
	var out []string
	for rank, lines := range r.Output {
		for _, l := range lines {
			out = append(out, fmt.Sprintf("[%d] %s", rank, l))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Run executes the program on np simulated ranks over the profile.
func (p *Program) Run(np int, prof netsim.Profile) (*Result, error) {
	return RunRanks(np, prof, p.newMachine)
}

// Record is Run that also records the run's skeleton: nil when no replay can
// stand for the run (see skeleton.go).
func (p *Program) Record(np int, prof netsim.Profile) (*Result, *Skeleton, error) {
	traces := make([]*RankTrace, np)
	res, err := RunRanks(np, prof, func(b *MPI) RankState {
		b.Trace = NewRankTrace(np)
		traces[b.Rank.Me()] = b.Trace
		return p.newMachine(b)
	})
	return res, NewSkeleton(traces, res, err), err
}

func (p *Program) newMachine(b *MPI) RankState {
	return &machine{prog: p, rank: b.Rank, mpi: b, price: p.Costs.prices(), trace: b.Trace}
}

// RankState is one engine's execution state for one simulated rank — all
// RunRanks needs of an engine.
type RankState interface {
	// RunMain executes the main program unit to completion.
	RunMain() error
	// Output returns the PRINT lines so far.
	Output() []string
	// MainArrays returns the arrays the main unit holds (each under its own
	// Name); nil when the main frame never initialized.
	MainArrays() []*Array
}

// RunRanks is the rank harness under every engine: it fans newState out
// over np simulated ranks, runs each to completion, and assembles the
// Result. A rank that fails ends early with its error in Result.Errors
// (which usually strands its peers: the deadlock report then names it).
func RunRanks(np int, prof netsim.Profile, newState func(b *MPI) RankState) (*Result, error) {
	res := &Result{
		Output: make([][]string, np),
		Arrays: make([]map[string]interface{}, np),
		Errors: make([]error, np),
	}
	binds := make([]*MPI, np)
	// Ranks run one at a time and each writes only its own slots.
	stats, err := mpi.Run(np, prof, func(r *mpi.Rank) {
		b := &MPI{Rank: r}
		r.Bind(b)
		binds[r.Me()] = b
		st := newState(b)
		res.Errors[r.Me()] = runGuarded(st)
		res.Output[r.Me()] = st.Output()
		if arrs := st.MainArrays(); arrs != nil {
			// The rank is done with its arrays, so the result takes them as
			// they are — unless a transfer it never waited on could still
			// land in one after this point: then the result is a copy taken
			// now, which that late write must not show in.
			late := r.Holding()
			snap := make(map[string]interface{}, len(arrs))
			for _, a := range arrs {
				if late {
					snap[a.Name] = a.Snapshot()
				} else {
					snap[a.Name] = a.Data()
				}
			}
			res.Arrays[r.Me()] = snap
		}
	})
	// A payload write can fail after its rank's last MPI call (a transfer
	// the program never waited on).
	for i, b := range binds {
		if b != nil && b.cbErr != nil && res.Errors[i] == nil {
			res.Errors[i] = fmt.Errorf("MPI transfer never waited on: %v", b.cbErr)
		}
	}
	if err != nil {
		for i, re := range res.Errors {
			if re != nil {
				return res, fmt.Errorf("%v (rank %d: %v)", err, i, re)
			}
		}
		return res, err
	}
	res.Stats = stats
	for i, re := range res.Errors {
		if re != nil {
			return res, fmt.Errorf("rank %d: %v", i, re)
		}
	}
	return res, nil
}

// runGuarded runs one rank's main unit, converting a panic on the rank's
// goroutine into that rank's error. This is the only recover() in the
// engines, and its wording is part of their differential contract:
// harness-level comparisons include per-rank error strings.
func runGuarded(st RankState) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("interp panic: %v", r)
		}
	}()
	return st.RunMain()
}

// RunMain implements RankState.
func (m *machine) RunMain() error {
	us := m.prog.main
	if us == nil {
		return fmt.Errorf("interp: program was not built by Load")
	}
	fr, err := m.newFrame(us, nil)
	if err != nil {
		return err
	}
	m.main = fr
	err = m.execStmts(fr, us.unit.Body)
	if err == errStop || err == errReturn {
		err = nil
	}
	return err
}

// Output implements RankState.
func (m *machine) Output() []string { return m.out }

// MainArrays implements RankState.
func (m *machine) MainArrays() []*Array {
	if m.main == nil {
		return nil
	}
	arrs := []*Array{}
	for i := range m.main.b {
		if a := m.main.b[i].arr; a != nil {
			arrs = append(arrs, a)
		}
	}
	return arrs
}

// SameOutput reports whether two results printed identical lines and hold
// identical final arrays on every rank; used by the §4-style correctness
// evaluation (transformed output must be identical to the original).
func SameOutput(a, b *Result) (bool, string) {
	if same, why := SameObservable(a, b); !same {
		return false, why
	}
	for r := range a.Arrays {
		for name, av := range a.Arrays[r] {
			bv, ok := b.Arrays[r][name]
			if !ok {
				continue // arrays added by the transformation (cc_reqs…)
			}
			if diff := diffData(av, bv); diff != "" {
				return false, fmt.Sprintf("rank %d array %s: %s", r, name, diff)
			}
		}
	}
	return true, ""
}

// SameObservable compares printed output plus only the named arrays (none:
// printed output alone). The indirect transformation (§3.4) makes the send
// array dead — it is never written again — so equivalence there is judged
// on the program's output and its receive array.
func SameObservable(a, b *Result, arrays ...string) (bool, string) {
	if len(a.Output) != len(b.Output) {
		return false, "different rank counts"
	}
	for r := range a.Output {
		if len(a.Output[r]) != len(b.Output[r]) {
			return false, fmt.Sprintf("rank %d: %d vs %d output lines", r, len(a.Output[r]), len(b.Output[r]))
		}
		for i := range a.Output[r] {
			if a.Output[r][i] != b.Output[r][i] {
				return false, fmt.Sprintf("rank %d line %d: %q vs %q", r, i, a.Output[r][i], b.Output[r][i])
			}
		}
	}
	for r := range a.Arrays {
		for _, name := range arrays {
			av, okA := a.Arrays[r][name]
			bv, okB := b.Arrays[r][name]
			if !okA || !okB {
				return false, fmt.Sprintf("rank %d: array %s missing", r, name)
			}
			if diff := diffData(av, bv); diff != "" {
				return false, fmt.Sprintf("rank %d array %s: %s", r, name, diff)
			}
		}
	}
	return true, ""
}

func diffData(a, b interface{}) string {
	_, aDigest := a.(ArrayDigest)
	if _, bDigest := b.(ArrayDigest); aDigest || bDigest {
		// A replay holds digests: equal or not is all there is to say.
		if da, db := Digest(a), Digest(b); da != db {
			return fmt.Sprintf("digest %+v vs %+v", da, db)
		}
		return ""
	}
	switch av := a.(type) {
	case []int64:
		bv, ok := b.([]int64)
		if !ok {
			return "kind mismatch"
		}
		if len(av) != len(bv) {
			return fmt.Sprintf("len %d vs %d", len(av), len(bv))
		}
		for i := range av {
			if av[i] != bv[i] {
				return fmt.Sprintf("element %d: %d vs %d", i, av[i], bv[i])
			}
		}
	case []float64:
		bv, ok := b.([]float64)
		if !ok {
			return "kind mismatch"
		}
		if len(av) != len(bv) {
			return fmt.Sprintf("len %d vs %d", len(av), len(bv))
		}
		for i := range av {
			if av[i] != bv[i] {
				return fmt.Sprintf("element %d: %g vs %g", i, av[i], bv[i])
			}
		}
	}
	return ""
}
