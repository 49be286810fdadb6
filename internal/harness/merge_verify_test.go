package harness

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/session"
	"repro/internal/verify"
	"repro/internal/workload"
)

// shardByParity splits a corpus into even/odd-index shards and sweeps each
// with the given verify setting (fresh private sessions, so the verify
// counters are cold and nonzero when enabled).
func shardByParity(t *testing.T, corpus []workload.Scenario, verify bool) []*Report {
	t.Helper()
	var shards []*Report
	for s := 0; s < 2; s++ {
		var part []workload.Scenario
		for _, sc := range corpus {
			if sc.Index%2 == s {
				part = append(part, sc)
			}
		}
		rep, err := Run(Config{Scenarios: part, Tune: true, Verify: verify, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, rep)
	}
	return shards
}

// TestMergeSumsVerifyCounters: the PR 8 verify counters must fold across
// shards by summation — a merged artifact claiming fewer verified variants
// than its shards proved would make the fleet's merged verdict unsound.
func TestMergeSumsVerifyCounters(t *testing.T) {
	corpus := smallCorpus(t, 4)
	shards := shardByParity(t, corpus, true)
	merged, err := Merge(shards)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Verify {
		t.Error("merged report dropped the verify flag")
	}
	var wantVerified, wantSkipped, wantFailures, wantWall int64
	for _, s := range shards {
		if !s.Verify {
			t.Fatal("verify-enabled shard did not record the verify flag")
		}
		if s.Summary.VerifiedVariants == 0 {
			t.Fatal("cold verify-enabled shard verified nothing; the summation assertion would be vacuous")
		}
		wantVerified += s.Summary.VerifiedVariants
		wantSkipped += s.Summary.VerifySkipped
		wantFailures += s.Summary.VerifyFailures
		wantWall += s.Summary.VerifyWallNs
	}
	got := merged.Summary
	if got.VerifiedVariants != wantVerified {
		t.Errorf("merged verified_variants = %d, want %d (sum of shards)", got.VerifiedVariants, wantVerified)
	}
	if got.VerifySkipped != wantSkipped {
		t.Errorf("merged verify_skipped = %d, want %d (sum of shards)", got.VerifySkipped, wantSkipped)
	}
	if got.VerifyFailures != wantFailures {
		t.Errorf("merged verify_failures = %d, want %d (sum of shards)", got.VerifyFailures, wantFailures)
	}
	if got.VerifyWallNs != wantWall {
		t.Errorf("merged verify_wall_ns = %d, want %d (sum of shards)", got.VerifyWallNs, wantWall)
	}
}

// TestMergeRejectsMixedVerify: folding a verify-on shard with a verify-off
// shard must fail loudly — the summed counters would cover only part of the
// corpus while the merged artifact reads as fully checked.
func TestMergeRejectsMixedVerify(t *testing.T) {
	corpus := smallCorpus(t, 4)
	var reports []*Report
	for s := 0; s < 2; s++ {
		var part []workload.Scenario
		for _, sc := range corpus {
			if sc.Index%2 == s {
				part = append(part, sc)
			}
		}
		rep, err := Run(Config{Scenarios: part, Tune: true, Verify: s == 0, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	_, err := Merge(reports)
	if err == nil {
		t.Fatal("merging verify-on and verify-off shards succeeded")
	}
	if !strings.Contains(err.Error(), "verify") {
		t.Errorf("mixed-verify rejection does not name the cause: %v", err)
	}
	// Either order must be rejected (the first report seeds the expectation).
	if _, err := Merge([]*Report{reports[1], reports[0]}); err == nil {
		t.Fatal("merging verify-off and verify-on shards succeeded")
	}
}

// TestVerifyTrackerCountsPairsNotCalls: two workers can reach the same
// content pair at once — one proves it (and marks the ledger), the other
// finds the mark — and either may report first. The counters must not
// depend on which: one pair verified, every other sighting skipped, a
// failing pair reported once.
func TestVerifyTrackerCountsPairsNotCalls(t *testing.T) {
	proved := session.Verification{Key: exec.KeyOf("pair")}
	known := session.Verification{Key: exec.KeyOf("pair"), Known: true}
	dirty := session.Verification{Key: exec.KeyOf("bad"), Diags: []verify.Diagnostic{{Code: "X"}, {Code: "Y"}}}
	for _, order := range [][]session.Verification{
		{proved, known, known, dirty, dirty},
		{known, proved, dirty, known, dirty},
		{dirty, known, known, dirty, proved},
	} {
		vt := newVerifyTracker(nil)
		reported := 0
		for _, v := range order {
			reported += len(vt.record(v, 1))
		}
		verified, skipped, failures, wall := vt.counts()
		if verified != 1 || skipped != 3 || failures != 2 || reported != 2 || wall != 5 {
			t.Errorf("order %v: verified %d skipped %d failures %d reported %d wall %d; want 1, 3, 2, 2, 5",
				order, verified, skipped, failures, reported, wall)
		}
	}
	// A pair the ledger knew before the sweep is never "verified" by it.
	vt := newVerifyTracker(nil)
	vt.record(known, 0)
	vt.record(known, 0)
	if verified, skipped, _, _ := vt.counts(); verified != 0 || skipped != 2 {
		t.Errorf("ledger-warm pair: verified %d skipped %d, want 0, 2", verified, skipped)
	}
}
