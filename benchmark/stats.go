package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// nearestRank returns the q-quantile (0 < q <= 1) of xs by the nearest-rank
// rule: the value at 1-based rank ceil(q*N) of the sorted samples. It never
// interpolates, so the answer is always a value that was measured.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rankOf(len(xs), q)-1]
}

// rankOf is the 1-based nearest rank of quantile q among n samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median is the nearest-rank 50th percentile (the lower middle sample when
// the count is even).
func median(xs []float64) float64 { return nearestRank(xs, 0.5) }

// minBeyond is how many raw samples must lie beyond a reported high
// percentile for it to be trusted.
const minBeyond = 10

// highRank picks the 1-based rank, among n per-op medians that each stand
// for `each` raw samples, reported as the "p90": the nearest rank of q,
// lowered until the ops beyond it hold at least minBeyond raw samples, but
// never below the median's rank — with too few samples the high percentile
// degrades to the median rather than to the maximum.
func highRank(n, each int, q float64) int {
	r, m := rankOf(n, q), rankOf(n, 0.5)
	for r > m && (n-r)*each < minBeyond {
		r--
	}
	return r
}

// perOpMedians folds samples laid out round-major (round r's op i at
// r*ops+i) into one median per op: a disturbance has to cover half the
// rounds before it moves any of them.
func perOpMedians(samples []float64, ops int) []float64 {
	rounds := len(samples) / ops
	out := make([]float64, ops)
	col := make([]float64, rounds)
	for i := range out {
		for r := range col {
			col[r] = samples[r*ops+i]
		}
		out[i] = median(col)
	}
	return out
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles computed, for three or more samples, the
// way Python's statistics.quantiles(values, n=4) does (exclusive method) —
// the number the acceptance rule is stated in.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(k int) float64 {
		// position k*(n+1)/4 in 1-based ranks, linearly interpolated and
		// clamped to the sample range.
		pos := float64(k) * float64(len(s)+1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// geomean is the geometric mean of positive ratios, accumulated in slice
// order so that two runs over the same list agree to the last bit.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
