package harness

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/workload"
)

// Figure1 sweeps the paper's Figure 1 configuration (workload.Figure1) under
// the paper's two stacks, each at its own tile size, and returns one row per
// stack in plan.PaperPair order. A cell that errors or fails the oracle is
// an error: the figure compares bit-identical programs or nothing.
func Figure1() ([]ProfileRun, error) {
	sc, tileFor := workload.Figure1()
	var rows []ProfileRun
	for _, m := range plan.PaperPair() {
		sc.K = tileFor[m.Name]
		rep, err := Run(Config{Scenarios: []workload.Scenario{sc}, Machines: []plan.Machine{m}})
		if err != nil {
			return nil, err
		}
		o := rep.Scenarios[0]
		if o.Err != "" || !o.Identical {
			return nil, fmt.Errorf("harness: figure 1 under %s (K=%d): %s%s", m.Name, sc.K, o.Err, o.Mismatch)
		}
		rows = append(rows, o.Profiles[0])
	}
	return rows, nil
}
