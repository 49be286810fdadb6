package plan

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/interp"
	"repro/internal/netsim"
)

// Machine is a named machine model: the network profile the simulator
// charges communication against and the CPU cost model the interpreter
// charges computation against. The two used to live apart (netsim.Profile
// constants vs interp.CostModel defaults) with no way to name a coherent
// pair; a Machine is that pair, and plans record which one they were built
// for.
type Machine struct {
	Name    string           `json:"name"`
	Profile netsim.Profile   `json:"profile"`
	Costs   interp.CostModel `json:"costs"`
	// PreferredK is the machine's default tile size; 0 means DefaultK.
	PreferredK int64 `json:"preferred_k,omitempty"`
	// Notes documents the calibration source.
	Notes string `json:"notes,omitempty"`
}

// DefaultK returns the machine's default tile size.
func (m Machine) DefaultK() int64 {
	if m.PreferredK > 0 {
		return m.PreferredK
	}
	return DefaultK
}

// String names the machine.
func (m Machine) String() string { return m.Name }

// MPICHTCP2005 is the paper's host-progress stack: MPICH over TCP on
// 100 Mbit-class Ethernet, kernel-managed eager sends, no offload, paired
// with a mid-2000s node's CPU costs.
func MPICHTCP2005() Machine {
	prof := netsim.MPICHTCP()
	prof.Name = "mpich-tcp-2005"
	return Machine{
		Name:    "mpich-tcp-2005",
		Profile: prof,
		Costs:   interp.DefaultCosts(),
		Notes:   "paper-era MPICH over TCP: host-driven progress, per-byte stack copies",
	}
}

// MPICHGM2005 is the paper's offload stack: MPICH-GM on Myrinet, zero-copy
// RDMA with an autonomous NIC co-processor, same-era CPU costs.
func MPICHGM2005() Machine {
	prof := netsim.MPICHGM()
	prof.Name = "mpich-gm-2005"
	return Machine{
		Name:    "mpich-gm-2005",
		Profile: prof,
		Costs:   interp.DefaultCosts(),
		Notes:   "paper-era MPICH-GM on Myrinet: zero-copy RDMA, NIC progresses rendezvous",
	}
}

// HPCRDMA2019 is a LogGP-calibrated modern cluster: 100 Gbit RDMA-capable
// interconnect (InfiniBand EDR / RoCE class — o ≈ 0.4 µs, L ≈ 1.2 µs,
// G ≈ 0.09 ns/B per published LogGP fits of verbs-level microbenchmarks)
// and a proportionally faster node. The eager/rendezvous switch sits at the
// 16 KiB point common to MVAPICH-style stacks. Offload holds: the HCA
// progresses rendezvous transfers without the host.
func HPCRDMA2019() Machine {
	return Machine{
		Name: "hpc-rdma-2019",
		Profile: netsim.Profile{
			Name:           "hpc-rdma-2019",
			OSend:          400 * netsim.Nanosecond,
			ORecv:          400 * netsim.Nanosecond,
			CopyNsPerByte:  0, // zero copy (registered memory)
			Latency:        1200 * netsim.Nanosecond,
			GapNsPerByte:   0.09, // ~11 GB/s effective
			EagerThreshold: 16 * 1024,
			CtrlBytes:      64,
			Offload:        true,
		},
		Costs: interp.CostModel{
			Op:       1 * netsim.Nanosecond, // wider cores, but interpreted ops still cost
			Assign:   1 * netsim.Nanosecond,
			Store:    1 * netsim.Nanosecond,
			Load:     1 * netsim.Nanosecond,
			LoopIter: 1 * netsim.Nanosecond,
			CallOver: 8 * netsim.Nanosecond,
		},
		// Faster wire relative to compute favors coarser tiles.
		PreferredK: 16,
		Notes:      "LogGP-calibrated 100G RDMA cluster (EDR/RoCE class), modern node",
	}
}

// Builtin returns the named machine models, sorted by name.
func Builtin() []Machine {
	ms := []Machine{MPICHTCP2005(), MPICHGM2005(), HPCRDMA2019()}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return ms
}

// PaperPair returns the two machine models of the paper's evaluation.
func PaperPair() []Machine {
	return []Machine{MPICHTCP2005(), MPICHGM2005()}
}

// DefaultSweep returns the default sweep set: the paper pair plus the
// modern hpc-rdma-2019 stack, promoted once its gate behavior was
// characterized corpus-wide (all 40 scenarios pass the oracle; the offload
// gates hold — the faster wire shrinks the blocked time the transformation
// can reclaim, so its overlap gains are real but thinner than Myrinet's).
func DefaultSweep() []Machine {
	return []Machine{MPICHTCP2005(), MPICHGM2005(), HPCRDMA2019()}
}

// ErrUnknownMachine marks a ByName failure: the caller named a machine model
// this binary does not have.
var ErrUnknownMachine = errors.New("unknown machine")

// ByName resolves a machine model by name, building only that model (it
// answers every planserver query).
func ByName(name string) (Machine, error) {
	switch name {
	case "mpich-tcp-2005":
		return MPICHTCP2005(), nil
	case "mpich-gm-2005":
		return MPICHGM2005(), nil
	case "hpc-rdma-2019":
		return HPCRDMA2019(), nil
	}
	var names []string
	for _, m := range Builtin() {
		names = append(names, m.Name)
	}
	return Machine{}, fmt.Errorf("plan: %w %q (have %s)", ErrUnknownMachine, name, strings.Join(names, ", "))
}
