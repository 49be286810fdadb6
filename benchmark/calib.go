package main

import "time"

// The noise sentinel: a fixed pure-Go kernel, independent of the program
// under test, timed between rounds. Its time moves only when the sandbox
// does, so a wide calibration spread beside a slow round says "busy
// neighbour", and a tight one says "slow program".

const (
	calibWords    = 4 << 20 // 32 MiB of uint64: larger than any cache here
	calibSpins    = 3_000_000
	calibStride   = 8 // one touch per 64-byte line
	calibInterval = 500 * time.Millisecond
	// disturbedSpread is the calibration spread above which a run prints
	// the disturbed note.
	disturbedSpread = 0.10
)

// calibrator owns the sweep buffer (allocated once, before set-up, so it is
// a constant floor under peak_rss_mb and never shows up in alloc_mb).
type calibrator struct {
	buf     []uint64
	samples []float64 // ms
	last    time.Time
	sink    uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{buf: make([]uint64, calibWords)}
	c.run() // the first pass pays the buffer's page faults: not a sample
	c.samples = c.samples[:0]
	return c
}

// pass times the kernel once: an integer xorshift loop (core speed) and a
// strided sweep of the buffer (memory bandwidth).
func (c *calibrator) pass() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252) + c.sink
	for i := 0; i < calibSpins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	for i := 0; i < len(c.buf); i += calibStride {
		c.buf[i] += x
	}
	c.sink = x
	c.last = time.Now()
	return float64(c.last.Sub(t0)) / 1e6
}

// run records one sample: the faster of two back-to-back passes. At
// GOMAXPROCS(1) a collection still in flight when a round ends shares the
// core with the first pass; it has finished by the second, so the sample
// reads the sandbox and not the workload's own collector.
func (c *calibrator) run() {
	a, b := c.pass(), c.pass()
	if b < a {
		a = b
	}
	c.samples = append(c.samples, a)
}

// between is called between rounds. Rounds shorter than calibInterval share
// one calibration, so the sweep does not evict the caches before every
// millisecond-scale round and change what the round measures.
func (c *calibrator) between() {
	if time.Since(c.last) >= calibInterval {
		c.run()
	}
}

// spread is the calibration samples' interquartile range over their median.
func (c *calibrator) spread() float64 { return iqrShare(c.samples) }
