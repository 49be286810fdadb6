package workload

import (
	"errors"
	"fmt"
)

// ErrBadShard marks a shard spec that is not "I/N" with 0 ≤ I < N.
var ErrBadShard = errors.New("bad shard")

// SelectShard keeps the scenarios whose corpus Index ≡ I (mod N) for a spec
// of the form "I/N". The selection keys on the stable corpus index — not the
// slice position — so a truncated corpus shards exactly like the full one's
// prefix, and shard artifacts merge back into corpus order deterministically.
// These are the `-shard I/N` semantics shared by evalrunner and the fleet
// dispatcher: decomposing a sweep into N shards and sweeping each exactly
// once covers every scenario exactly once, for any N ≥ 1 (shards of a corpus
// whose size is not divisible by N are simply unequal in size, and a shard
// with I ≥ the corpus size comes back empty).
func SelectShard(scenarios []Scenario, spec string) ([]Scenario, error) {
	var i, n int
	if _, err := fmt.Sscanf(spec, "%d/%d", &i, &n); err != nil || n < 1 || i < 0 || i >= n {
		return nil, fmt.Errorf("%w %q (want I/N with 0 ≤ I < N)", ErrBadShard, spec)
	}
	var out []Scenario
	for _, sc := range scenarios {
		if sc.Index%n == i {
			out = append(out, sc)
		}
	}
	return out, nil
}

// SelectCorpus generates the corpus for opts.Seed and narrows it in the one
// order every sweep entry point shares: the first opts.Limit scenarios
// (0 = all), then the shard ("" = all). size is the scenario count before
// sharding — what evalrunner's -min and the fleet's shard-count clamp
// measure — and whole reports that no Limit truncated it (the strict
// tuned-beats-fixed gate only holds on the whole corpus).
func SelectCorpus(opts GenOptions, shard string) (scenarios []Scenario, size int, whole bool, err error) {
	full := GenerateScenarios(GenOptions{Seed: opts.Seed})
	scenarios = full
	if opts.Limit > 0 && opts.Limit < len(full) {
		scenarios = full[:opts.Limit]
	}
	size = len(scenarios)
	if shard != "" {
		if scenarios, err = SelectShard(scenarios, shard); err != nil {
			return nil, 0, false, err
		}
	}
	return scenarios, size, size == len(full), nil
}
