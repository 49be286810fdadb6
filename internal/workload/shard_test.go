package workload

import (
	"fmt"
	"strings"
	"testing"
)

// corpusOf builds a minimal fake corpus of n scenarios with stable indices.
func corpusOf(n int) []Scenario {
	out := make([]Scenario, n)
	for i := range out {
		out[i] = Scenario{Index: i, Name: fmt.Sprintf("s%d", i)}
	}
	return out
}

// TestSelectShardPartition: for corpus sizes that are NOT divisible by the
// shard count (10 scenarios over 3 processes, say), the
// shards must still partition the corpus — every scenario in exactly one
// shard, unequal shard sizes allowed, order preserved within each shard.
func TestSelectShardPartition(t *testing.T) {
	for _, size := range []int{1, 7, 10, 40} {
		for _, n := range []int{1, 2, 3, 4, 7, 11} {
			corpus := corpusOf(size)
			seen := map[int]int{}
			for i := 0; i < n; i++ {
				shard, err := SelectShard(corpus, fmt.Sprintf("%d/%d", i, n))
				if err != nil {
					t.Fatalf("size %d shard %d/%d: %v", size, i, n, err)
				}
				prev := -1
				for _, sc := range shard {
					seen[sc.Index]++
					if sc.Index%n != i {
						t.Errorf("size %d shard %d/%d includes index %d", size, i, n, sc.Index)
					}
					if sc.Index <= prev {
						t.Errorf("size %d shard %d/%d out of order: %d after %d", size, i, n, sc.Index, prev)
					}
					prev = sc.Index
				}
				// Shard sizes of a non-divisible corpus differ by at most one.
				want := size / n
				if i < size%n {
					want++
				}
				if len(shard) != want {
					t.Errorf("size %d shard %d/%d has %d scenarios, want %d", size, i, n, len(shard), want)
				}
			}
			if len(seen) != size {
				t.Errorf("size %d over %d shards covered %d scenarios", size, n, len(seen))
			}
			for idx, cnt := range seen {
				if cnt != 1 {
					t.Errorf("size %d over %d shards saw index %d %d times", size, n, idx, cnt)
				}
			}
		}
	}
}

// TestSelectShardTruncatedPrefix: sharding a truncated corpus must select
// exactly the scenarios of the full corpus' shard that fall inside the
// prefix — the index, not the slice position, is the shard key.
func TestSelectShardTruncatedPrefix(t *testing.T) {
	full := corpusOf(40)
	prefix := full[:10]
	for i := 0; i < 3; i++ {
		spec := fmt.Sprintf("%d/3", i)
		fromPrefix, err := SelectShard(prefix, spec)
		if err != nil {
			t.Fatal(err)
		}
		fromFull, err := SelectShard(full, spec)
		if err != nil {
			t.Fatal(err)
		}
		var want []Scenario
		for _, sc := range fromFull {
			if sc.Index < 10 {
				want = append(want, sc)
			}
		}
		if len(fromPrefix) != len(want) {
			t.Fatalf("shard %s of prefix has %d scenarios, want %d", spec, len(fromPrefix), len(want))
		}
		for j := range want {
			if fromPrefix[j].Index != want[j].Index {
				t.Fatalf("shard %s of prefix: scenario %d has index %d, want %d",
					spec, j, fromPrefix[j].Index, want[j].Index)
			}
		}
	}
}

// TestSelectShardEmptyAndOverwide: a shard index at or past the corpus size
// legally selects nothing (the caller decides whether empty is an error),
// and malformed specs are rejected.
func TestSelectShardEmptyAndOverwide(t *testing.T) {
	corpus := corpusOf(2)
	shard, err := SelectShard(corpus, "2/5")
	if err != nil {
		t.Fatalf("2/5 over 2 scenarios: %v", err)
	}
	if len(shard) != 0 {
		t.Fatalf("2/5 over 2 scenarios selected %d, want 0", len(shard))
	}
	for _, spec := range []string{"", "1", "a/b", "-1/2", "2/2", "3/2", "0/0", "0/-1"} {
		if _, err := SelectShard(corpus, spec); err == nil {
			t.Errorf("spec %q accepted, want error", spec)
		}
	}
}

// TestSelectCorpus: the one selection order — seed, Limit, shard — with the
// size before sharding and the whole-corpus verdict every entry point
// (evalrunner sweep, -shard, -merge) reads.
func TestSelectCorpus(t *testing.T) {
	full := GenerateScenarios(GenOptions{Seed: 7})
	all, size, whole, err := SelectCorpus(GenOptions{Seed: 7}, "")
	if err != nil || size != len(full) || !whole || len(all) != len(full) || all[3].Source != full[3].Source {
		t.Fatalf("unlimited: %d scenarios, size %d, whole %v, err %v; want the %d-scenario seed-7 corpus", len(all), size, whole, err, len(full))
	}
	shard, size, whole, err := SelectCorpus(GenOptions{Seed: 7, Limit: 10}, "1/3")
	if err != nil || size != 10 || whole {
		t.Fatalf("limit 10 shard 1/3: size %d, whole %v, err %v; want 10, false, nil", size, whole, err)
	}
	for i, sc := range shard {
		if want := 1 + 3*i; sc.Index != want || sc.Name != full[want].Name {
			t.Errorf("limit 10 shard 1/3 [%d] = #%d %s, want #%d %s", i, sc.Index, sc.Name, want, full[want].Name)
		}
	}
	if len(shard) != 3 {
		t.Errorf("limit 10 shard 1/3 has %d scenarios, want 3", len(shard))
	}
	// A Limit at or above the corpus size truncates nothing.
	if _, size, whole, _ := SelectCorpus(GenOptions{Seed: 7, Limit: len(full) + 5}, ""); size != len(full) || !whole {
		t.Errorf("over-wide limit: size %d, whole %v; want %d, true", size, whole, len(full))
	}
	if _, _, _, err := SelectCorpus(GenOptions{}, "3/3"); err == nil || !strings.Contains(err.Error(), "bad shard") {
		t.Errorf("shard 3/3: err = %v, want a bad-shard error", err)
	}
}
