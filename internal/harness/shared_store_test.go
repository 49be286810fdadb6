package harness

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/session"
	"repro/internal/workload"
)

// TestShardedSweepsShareOneStore: the two shards of a tuned, verified sweep
// run concurrently in two sessions, each over its own DiskStore on one
// shared directory — what two `evalrunner -shard I/2 -cache-dir DIR`
// processes do. Their merge equals a private single-process sweep modulo the
// volatile counters, and a second pass over both shards finds every variant
// and every clean verdict on disk: 0 compiles, 0 verifications.
func TestShardedSweepsShareOneStore(t *testing.T) {
	dir := t.TempDir()
	corpus := smallCorpus(t, 5) // deliberately not divisible by the shard count
	sweepShards := func() []*Report {
		t.Helper()
		reports := make([]*Report, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := range reports {
			shard, err := workload.SelectShard(corpus, fmt.Sprintf("%d/2", i))
			if err != nil {
				t.Fatal(err)
			}
			store, err := exec.NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := session.New(session.Options{Store: store})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				reports[i], errs[i] = Run(Config{Scenarios: shard, Tune: true, Verify: true, Session: sess})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("shard %d/2: %v", i, err)
			}
			if s := reports[i].Summary; s.Errors != 0 || s.VerifyFailures != 0 {
				t.Fatalf("shard %d/2 failed:\n%s", i, reports[i].Table())
			}
		}
		return reports
	}
	norm := func(r *Report) string {
		t.Helper()
		r.Summary.SweepWallNs = 0
		r.Summary.VariantsCompiled = 0
		r.Summary.CacheHits = 0
		r.Summary.DiskHits = 0
		r.Summary.VerifiedVariants = 0
		r.Summary.VerifySkipped = 0
		r.Summary.VerifyWallNs = 0
		stripReplayCounters(r)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	merged, err := Merge(sweepShards())
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Summary.Scenarios; got != len(corpus) {
		t.Fatalf("merged artifact covers %d scenarios, want %d", got, len(corpus))
	}
	single, err := Run(Config{Scenarios: corpus, Tune: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := norm(merged), norm(single); a != b {
		t.Errorf("merged shard artifact differs from the single-process sweep:\n%s\nvs\n%s", a, b)
	}

	for i, r := range sweepShards() {
		s := r.Summary
		if s.VariantsCompiled != 0 || s.VerifiedVariants != 0 || s.VerifySkipped == 0 {
			t.Errorf("second pass, shard %d/2: compiled %d, verified %d, skipped %d; want 0, 0, > 0",
				i, s.VariantsCompiled, s.VerifiedVariants, s.VerifySkipped)
		}
	}
}
