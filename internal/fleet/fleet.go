// Package fleet farms sweep and tuning work out to worker processes that
// share one content-addressed variant store and one verify ledger. The
// coordinator decomposes a sweep into shard work items (the `-shard I/N`
// semantics of workload.SelectShard), dispatches them to registered workers
// over HTTP with per-item retry/timeout/backoff and failed-worker
// reassignment, and folds the per-shard bench-harness artifacts back
// together with harness.Merge — so the fleet artifact is byte-identical to
// a single-process sweep modulo the wall-clock and cache-economics
// counters, which are volatile by contract.
//
// A worker is a thin HTTP loop around harness.Run (for shards) and
// session.Plan (for tuning queries), holding a session.Session whose
// DiskStore and verify ledger live in the shared cache directory: every
// variant one worker compiles or verifies is a disk hit (or ledger skip)
// for every other.
package fleet

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/plan"
	"repro/internal/session"
	"repro/internal/workload"
)

// SweepSpec is the wire form of one sweep request: everything a worker
// needs to regenerate its shard of the corpus and run it exactly as a
// single-process `evalrunner` invocation would.
type SweepSpec struct {
	// Seed selects the generated corpus (0 = canonical).
	Seed int64 `json:"seed"`
	// Limit truncates the corpus to its first N scenarios (0 = all).
	Limit int `json:"limit,omitempty"`
	// Machines names the machine models; empty means the default sweep set.
	Machines []string `json:"machines,omitempty"`
	// Tune enables the per-(scenario, machine) plan search.
	Tune bool `json:"tune,omitempty"`
	// TuneMax caps measured tuning candidates (0 = tuner default).
	TuneMax int `json:"tune_max,omitempty"`
	// Verify runs the static verification tier on every variant touched.
	Verify bool `json:"verify,omitempty"`
	// Shards is the number of shard work items to decompose into; <= 0
	// selects one per live worker (clamped to the corpus size either way).
	Shards int `json:"shards,omitempty"`
}

// ShardRequest is one work item: a sweep spec narrowed to shard I/N.
type ShardRequest struct {
	Sweep SweepSpec `json:"sweep"`
	Shard string    `json:"shard"`
}

// Job kinds.
const (
	KindSweep = "sweep"
	KindTune  = "tune"
)

// Job states, in lifecycle order.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// EnqueueRequest is the POST /enqueue body: exactly one of Sweep or Tune,
// selected by Kind.
type EnqueueRequest struct {
	Kind  string         `json:"kind"`
	Sweep *SweepSpec     `json:"sweep,omitempty"`
	Tune  *session.Query `json:"tune,omitempty"`
}

// RunShard regenerates the requested shard of the corpus and sweeps it
// through the session — the worker-side body of one sweep work item. The
// shard keys on the stable corpus index, so the shards of a fleet sweep
// partition the corpus exactly like N `evalrunner -shard I/N` processes
// would, and harness.Merge folds the artifacts back into corpus order.
func RunShard(sess *session.Session, req ShardRequest) (*harness.Report, error) {
	spec := req.Sweep
	scenarios, _, _, err := workload.SelectCorpus(workload.GenOptions{Seed: spec.Seed, Limit: spec.Limit}, req.Shard)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	machines, err := resolveMachines(spec.Machines)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return harness.Run(harness.Config{
		Scenarios: scenarios, Machines: machines,
		Tune: spec.Tune, TuneMaxMeasured: spec.TuneMax,
		Verify: spec.Verify, Engine: sess.Engine(), Session: sess,
	})
}

// resolveMachines maps machine names to models (empty = harness default).
func resolveMachines(names []string) ([]plan.Machine, error) {
	var machines []plan.Machine
	for _, name := range names {
		m, err := plan.ByName(name)
		if err != nil {
			return nil, err
		}
		machines = append(machines, m)
	}
	return machines, nil
}
