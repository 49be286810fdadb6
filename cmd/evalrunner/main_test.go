package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/harness"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		f       cliFlags
		engine  exec.Engine
		wantErr string
	}{
		{name: "defaults", f: cliFlags{}, engine: exec.EngineBytecode},
		{name: "walk engine", f: cliFlags{Engine: "walk"}, engine: exec.EngineWalk},
		{name: "compile engine", f: cliFlags{Engine: "compile"}, wantErr: "unknown engine"},
		{name: "bytecode engine", f: cliFlags{Engine: "bytecode"}, engine: exec.EngineBytecode},
		{name: "unknown engine", f: cliFlags{Engine: "jit"}, wantErr: "unknown engine"},
		{name: "merge alone", f: cliFlags{Merge: true}, engine: exec.EngineBytecode},
		{name: "shard alone", f: cliFlags{Shard: "0/2"}, engine: exec.EngineBytecode},
		{name: "merge with shard", f: cliFlags{Merge: true, Shard: "0/2"}, wantErr: "-merge"},
		{name: "merge with engine", f: cliFlags{Merge: true, Engine: "walk"}, wantErr: "-engine"},
		{name: "tiered tuning", f: cliFlags{Tune: true, TuneCheckEngine: "walk"}, engine: exec.EngineBytecode},
		{name: "tune check without tune", f: cliFlags{TuneCheckEngine: "walk"}, wantErr: "-tune-check-engine"},
		{name: "tune check unknown engine", f: cliFlags{Tune: true, TuneCheckEngine: "jit"}, wantErr: "unknown engine"},
		{name: "tune check names sweep engine", f: cliFlags{Tune: true, TuneCheckEngine: "bytecode"}, wantErr: "sweep engine itself"},
		{name: "tune check on explicit walk sweep", f: cliFlags{Tune: true, Engine: "walk", TuneCheckEngine: "walk"}, wantErr: "sweep engine itself"},
		{name: "tune check compile sweep vs walk", f: cliFlags{Tune: true, Engine: "compile", TuneCheckEngine: "walk"}, wantErr: "unknown engine"},
		{name: "tune check against compile", f: cliFlags{Tune: true, TuneCheckEngine: "compile"}, wantErr: "unknown engine"},
		{name: "positive parallel and limit", f: cliFlags{Parallel: 8, Limit: 10}, engine: exec.EngineBytecode},
		{name: "negative parallel", f: cliFlags{Parallel: -1}, wantErr: "-parallel"},
		{name: "negative limit", f: cliFlags{Limit: -5}, wantErr: "-limit"},
		{name: "cache dir sweep", f: cliFlags{CacheDir: "varcache"}, engine: exec.EngineBytecode},
		{name: "cache dir with merge", f: cliFlags{Merge: true, CacheDir: "varcache"}, wantErr: "-cache-dir"},
		{name: "cache dir with walk engine", f: cliFlags{CacheDir: "varcache", Engine: "walk"}, engine: exec.EngineWalk},
		{name: "verify sweep", f: cliFlags{Verify: true}, engine: exec.EngineBytecode},
		{name: "verify tuned sweep with cache dir", f: cliFlags{Verify: true, Tune: true, CacheDir: "varcache"}, engine: exec.EngineBytecode},
		{name: "verify with walk engine", f: cliFlags{Verify: true, Engine: "walk"}, engine: exec.EngineWalk},
		{name: "verify with merge", f: cliFlags{Merge: true, Verify: true}, wantErr: "-verify"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			engine, err := validateFlags(c.f)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%+v) = %v, want ok", c.f, err)
				}
				if engine != c.engine {
					t.Fatalf("engine = %q, want %q", engine, c.engine)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags(%+v) succeeded, want error mentioning %q", c.f, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestOffloadGates: the aggregate overlap gate keys on the measured
// blocked share — a machine with reclaimable blocked time must gain, an
// already-overlapped machine (hpc-rdma-2019 class) is held to the no-harm
// floor at the fixed K. Tuned geomeans are held to the exact ≥ 1.0 gate on
// every machine: with the identity plan in plan space, tuning can never
// lose, so any tuned geomean below 1.0 is a broken invariant regardless of
// strictness.
func TestOffloadGates(t *testing.T) {
	mk := func(ps ...harness.ProfileSummary) *harness.Report {
		return &harness.Report{Schema: harness.Schema, Summary: harness.Summary{
			Scenarios: 1, Correct: 1, PerProfile: ps,
		}}
	}
	cases := []struct {
		name   string
		ps     harness.ProfileSummary
		tuned  bool
		strict bool
		want   bool
	}{
		{name: "blocked machine gains", want: true,
			ps: harness.ProfileSummary{Profile: "gm", Offload: true, Geomean: 1.1, OriginalBlockedFrac: 0.2}},
		{name: "blocked machine fails to gain", want: false,
			ps: harness.ProfileSummary{Profile: "gm", Offload: true, Geomean: 0.99, OriginalBlockedFrac: 0.2}},
		{name: "overlapped machine small loss tolerated", want: true,
			ps: harness.ProfileSummary{Profile: "rdma", Offload: true, Geomean: 0.95, OriginalBlockedFrac: 0.002}},
		{name: "overlapped machine below no-harm floor", want: false,
			ps: harness.ProfileSummary{Profile: "rdma", Offload: true, Geomean: 0.85, OriginalBlockedFrac: 0.002}},
		{name: "overlapped machine tuned at break-even", tuned: true, strict: true, want: true,
			ps: harness.ProfileSummary{Profile: "rdma", Offload: true, Geomean: 0.95, TunedGeomean: 1.0, OriginalBlockedFrac: 0.002}},
		{name: "overlapped machine tuned below 1.0 fails", tuned: true, strict: true, want: false,
			ps: harness.ProfileSummary{Profile: "rdma", Offload: true, Geomean: 0.95, TunedGeomean: 0.99, OriginalBlockedFrac: 0.002}},
		{name: "tuned below 1.0 fails even off the full corpus", tuned: true, want: false,
			ps: harness.ProfileSummary{Profile: "rdma", Offload: true, Geomean: 0.95, TunedGeomean: 0.96, OriginalBlockedFrac: 0.002}},
		{name: "tuned below 1.0 fails on non-offload machines too", tuned: true, want: false,
			ps: harness.ProfileSummary{Profile: "tcp", Offload: false, Geomean: 0.97, TunedGeomean: 0.98, OriginalBlockedFrac: 0.3}},
		{name: "non-offload machine ungated", want: true,
			ps: harness.ProfileSummary{Profile: "tcp", Offload: false, Geomean: 0.7, OriginalBlockedFrac: 0.3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := gates(mk(c.ps), true, c.strict, c.tuned); got != c.want {
				t.Errorf("gates(%+v, tuned=%v, strict=%v) = %v, want %v", c.ps, c.tuned, c.strict, got, c.want)
			}
		})
	}
}

// TestVerifyGate: any static-verification finding fails the gate, shard or
// not — a flagged variant means the pipeline emitted code it cannot justify,
// and the summed counter keeps the gate alive through a -merge.
func TestVerifyGate(t *testing.T) {
	clean := &harness.Report{Schema: harness.Schema, Summary: harness.Summary{
		Scenarios: 1, Correct: 1, VerifiedVariants: 7,
	}}
	if !gates(clean, false, false, false) {
		t.Error("clean verified shard failed the gate")
	}
	dirty := &harness.Report{Schema: harness.Schema, Summary: harness.Summary{
		Scenarios: 1, Correct: 1, VerifyFailures: 1,
	}}
	dirty.Scenarios = []harness.Outcome{{Name: "s", VerifyFailures: []string{"tile-coverage: ..."}}}
	if gates(dirty, false, false, false) {
		t.Error("verify finding passed the gate")
	}
	if gates(dirty, true, true, false) {
		t.Error("verify finding passed the aggregate gate")
	}
}

// TestLoadBaseline: -check-baseline must fail fast on an unreadable or
// foreign-schema baseline, before any sweeping overwrites it.
func TestLoadBaseline(t *testing.T) {
	if rep, err := loadBaseline(""); err != nil || rep != nil {
		t.Fatalf("empty path: (%v, %v), want (nil, nil)", rep, err)
	}
	if _, err := loadBaseline(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing baseline file accepted")
	}
	bad := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"repro/bench-harness/v4"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("foreign-schema baseline: %v, want schema error", err)
	}
}
