package exec

import (
	"reflect"

	"repro/internal/interp"
	"repro/internal/netsim"
)

// Internals the external differential tests steer by.

// StripLen and StripMin are the strip executor's two constants.
const (
	StripLen = stripLen
	StripMin = stripMin
)

// StripEligible reports, for each innermost DO loop of the lowered main
// unit in program order, whether it runs strip-wise.
func (p *Program) StripEligible() []bool {
	var out []bool
	for _, fd := range p.Bytecode().fors {
		if fd.inner {
			out = append(out, fd.nvec > 0)
		}
	}
	return out
}

// Routed reports where and why the program is not lowered — RunBytecode runs
// the walker on its source — or "" when every unit lowers.
func (p *Program) Routed() string { return p.routed }

// Record is Run that also records the run's skeleton, nil when no replay can
// stand for it (interp/skeleton.go), under either engine. It records afresh,
// whether or not the Program already holds a skeleton, and stores nothing on
// it: the caller owns what Record returns.
func (r Runner) Record(src string, np int, costs interp.CostModel, prof netsim.Profile) (*interp.Result, *interp.Skeleton, error) {
	p, err := r.get(src)
	if err != nil {
		return nil, nil, err
	}
	return p.run(r.Engine, np, prof, costs, true, nil)
}

// RecordSlice executes the program's slice afresh and returns its recording
// — nil when the run is fenced — and why the program has no slice ("" when
// it has; then no skeleton is returned). It stores nothing on the Program.
func (r Runner) RecordSlice(src string, np int, costs interp.CostModel, prof netsim.Profile) (*interp.Skeleton, string, error) {
	p, err := r.get(src)
	if err != nil {
		return nil, "", err
	}
	if p.Bytecode(); p.sliceForm() != "" {
		return nil, p.sliceForm(), nil
	}
	_, skel, err := p.runSlice(np, prof, costs, true)
	return skel, "", err
}

// SliceShapes names the arrays of the main unit that the program's slice
// allocates as shapes; none when the program has no slice.
func (r Runner) SliceShapes(src string) ([]string, error) {
	p, err := r.get(src)
	if err != nil || p.sliceForm() != "" {
		return nil, err
	}
	var names []string
	for _, d := range p.main.sbp.decls {
		if d.shape {
			names = append(names, d.name)
		}
	}
	return names, nil
}

// SliceFoldedNests counts the loops of the program's slice whose fold takes
// in a nested loop; none when the program has no slice.
func (r Runner) SliceFoldedNests(src string) (int, error) {
	p, err := r.get(src)
	if err != nil || p.sliceForm() != "" {
		return 0, err
	}
	n := 0
	for _, u := range append([]*unit{p.main}, p.subs...) {
		for _, fd := range u.sbp.fors {
			if fd.fold == nil {
				continue
			}
			for _, op := range fd.fold.ops {
				if op.ins.op == bForPrep {
					n++
					break
				}
			}
		}
	}
	return n, nil
}

// SkeletonRuns counts the strided runs among the entries a recording
// stores, all ranks. interp keeps its stored form to itself, so this reads
// it by reflection: Skeleton.ranks[r].entries, whose run headers carry op
// 255 (interp's opRun) and their pattern length in peer, two entries per
// pattern entry following.
func SkeletonRuns(s *interp.Skeleton) int {
	if s == nil {
		return 0
	}
	runs := 0
	ranks := reflect.ValueOf(s).Elem().FieldByName("ranks")
	for r := 0; r < ranks.Len(); r++ {
		es := ranks.Index(r).FieldByName("entries")
		for k := 0; k < es.Len(); k++ {
			if e := es.Index(k); e.FieldByName("op").Uint() == 255 {
				runs++
				k += 2 * int(e.FieldByName("peer").Int())
			}
		}
	}
	return runs
}
