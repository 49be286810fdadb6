package workload

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/netsim"
)

// Scenario is one fully-specified differential-evaluation case: a Fortran
// kernel in the subset the Compuniformer accepts, plus the run parameters
// the harness needs to execute original and pre-push variants identically.
type Scenario struct {
	// Index is the scenario's position in its full corpus — stable across
	// shard selection, so sharded sweep artifacts merge back into corpus
	// order deterministically.
	Index  int
	Name   string // unique within a corpus, e.g. "direct/nx4096/np4/K256"
	Family string // kernel family: direct, inner3d, indirect, fft, lu, sort
	Source string // the untransformed Fortran source
	NP     int    // rank count the kernel's np parameter matches
	K      int64  // tile size handed to the Compuniformer
	Seed   int64  // salt that perturbed the kernel body (reproducibility)

	// PairBytes is the per-destination payload of the original ALLTOALL;
	// together with the profile's eager threshold it determines Regime.
	PairBytes int64
	// Regime classifies PairBytes against the 16 KiB eager threshold both
	// built-in profiles use: "eager" or "rendezvous".
	Regime string

	// Costs optionally overrides the interpreter cost model (nil = default).
	Costs *interp.CostModel

	// Arrays names the observable arrays the correctness oracle compares for
	// this scenario (besides all printed output); nil means the sweep default
	// {"ar"}. Multi-site kernels name one receive array per exchange.
	Arrays []string

	// Sites is the number of MPI_ALLTOALL sites the kernel contains (0 is
	// read as 1, the single-site default of the historical families).
	Sites int
}

// String identifies the scenario.
func (s Scenario) String() string { return s.Name }

// GenOptions parameterizes corpus generation.
type GenOptions struct {
	// Seed salts every kernel body; the same seed always yields the same
	// corpus, byte for byte. 0 produces the canonical (unsalted) corpus.
	Seed int64
	// Limit truncates the corpus to its first Limit scenarios (after the
	// round-robin interleave, so any prefix stays family-diverse). 0 means
	// the full corpus.
	Limit int
}

// regimeFor classifies a per-pair payload against the eager/rendezvous
// switch of the built-in profiles (both use the same threshold; derived,
// not duplicated, so profile retuning cannot desync the labels).
func regimeFor(pairBytes int64) string {
	if pairBytes <= netsim.MPICHGM().EagerThreshold {
		return "eager"
	}
	return "rendezvous"
}

// mix is a splitmix64 step: a tiny, dependency-free deterministic PRNG used
// only to salt kernel coefficients. Scenario identity never depends on map
// order or scheduling — only on (Seed, scenario index).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// salt derives a small non-negative coefficient perturbation in [0, m) from
// (seed, lane). seed 0 always maps to 0 so unsalted sources stay identical
// to the historical fixtures.
func salt(seed int64, lane uint64, m int64) int64 {
	if seed == 0 || m <= 0 {
		return 0
	}
	return int64(mix(uint64(seed)*0x100000001b3+lane) % uint64(m))
}

// heavyCosts is the Figure-1 cost model: each interpreted element store
// stands in for a heavier real-world kernel body (the paper's applications
// do real floating-point work per element), which puts the corpus in the
// compute ≈ communication regime the paper evaluates.
func heavyCosts() *interp.CostModel {
	c := interp.DefaultCosts()
	c.Store = 8 * netsim.Nanosecond
	return &c
}

// GenerateScenarios produces the differential-evaluation corpus: the three
// structural shapes the paper's transformation handles (direct, inner node
// loop, indirect/copy-loop) dressed as the application kernels the paper
// names in §2 (FFT transpose, LU update, sample-sort scatter), swept over
// array sizes, rank counts, tile sizes, and eager-vs-rendezvous message
// regimes. The corpus is deterministic in opts.Seed and interleaved
// round-robin across families so any prefix is diverse.
func GenerateScenarios(opts GenOptions) []Scenario {
	var families [][]Scenario
	families = append(families,
		directScenarios(opts.Seed),
		inner3dScenarios(opts.Seed),
		indirectScenarios(opts.Seed),
		fftScenarios(opts.Seed),
		luScenarios(opts.Seed),
		sortScenarios(opts.Seed),
		raggedScenarios(opts.Seed),
		xchgScenarios(opts.Seed),
		multiScenarios(opts.Seed),
	)
	var out []Scenario
	for i := 0; ; i++ {
		added := false
		for _, f := range families {
			if i < len(f) {
				out = append(out, f[i])
				added = true
			}
		}
		if !added {
			break
		}
	}
	if opts.Limit > 0 && len(out) > opts.Limit {
		out = out[:opts.Limit]
	}
	for i := range out {
		out[i].Index = i
	}
	return out
}

// Figure1 is the paper's Figure 1 as data: the measured kernel — a
// bandwidth-bound inner-node-loop exchange (512 KiB per outer step, 32 KiB
// per rank pair, rendezvous-sized on the GM stack) with computation of the
// same order, the regime the paper's applications run in — and the tile size
// for each network stack. As §1 motivates ("the performance of the
// transformed code depends on several cluster and application related
// parameters [that] have to be recomputed… every time the cluster… changes"),
// K is per stack: TCP amortizes its higher per-message overhead with larger
// tiles, the offload stack pipelines better with smaller ones. A caller
// sweeps the scenario under each named machine at that machine's K.
func Figure1() (sc Scenario, tileFor map[string]int64) {
	const m, ny, sz, np = 128, 64, 8, 4
	pair := int64(m * ny * sz / np * 4)
	return Scenario{
		Name: "inner3d(fig1)", Family: "inner3d", NP: np,
		Source:    Inner3DSource(Inner3DParams{M: m, NY: ny, SZ: sz, NP: np, Weight: 1}),
		PairBytes: pair, Regime: regimeFor(pair), Costs: heavyCosts(),
	}, map[string]int64{"mpich-tcp-2005": 32, "mpich-gm-2005": 16}
}

// directScenarios sweeps the Fig. 2(a) 1-D shape across the eager/rendezvous
// crossover and two rank counts.
func directScenarios(seed int64) []Scenario {
	type cfg struct {
		nx, np int
		k      int64
		outer  int
		weight int
	}
	cfgs := []cfg{
		{nx: 1024, np: 4, k: 256, outer: 3, weight: 3},   // eager: 1 KiB per pair
		{nx: 8192, np: 4, k: 2048, outer: 2, weight: 4},  // eager: 8 KiB per pair
		{nx: 32768, np: 4, k: 8192, outer: 2, weight: 4}, // rendezvous: 32 KiB per pair
		{nx: 8192, np: 8, k: 1024, outer: 2, weight: 4},  // eager, wider machine
		{nx: 65536, np: 8, k: 8192, outer: 1, weight: 4}, // rendezvous at np=8
	}
	var out []Scenario
	for i, c := range cfgs {
		src := DirectSource(DirectParams{
			NX: c.nx, Outer: c.outer, NP: c.np, Weight: c.weight,
			Salt: salt(seed, uint64(i)+100, 1<<16),
		})
		pair := int64(c.nx / c.np * 4)
		out = append(out, Scenario{
			Name:   fmt.Sprintf("direct/nx%d/np%d/K%d", c.nx, c.np, c.k),
			Family: "direct", Source: src, NP: c.np, K: c.k, Seed: seed,
			PairBytes: pair, Regime: regimeFor(pair), Costs: heavyCosts(),
		})
	}
	return out
}

// inner3dScenarios sweeps the Fig. 4 inner-node-loop shape (the paper's
// measured kernel) over tile shapes and message regimes.
func inner3dScenarios(seed int64) []Scenario {
	type cfg struct {
		m, ny, sz, np int
		k             int64
		weight        int
	}
	cfgs := []cfg{
		{m: 32, ny: 16, sz: 8, np: 4, k: 8, weight: 2},   // eager tiles
		{m: 64, ny: 32, sz: 8, np: 4, k: 8, weight: 1},   // eager: 16 KiB per pair
		{m: 128, ny: 32, sz: 8, np: 4, k: 16, weight: 1}, // rendezvous: 32 KiB per pair (Fig. 1 regime)
		{m: 128, ny: 16, sz: 16, np: 8, k: 4, weight: 1}, // wider machine
		{m: 32, ny: 64, sz: 8, np: 2, k: 32, weight: 2},  // two ranks, rendezvous
		{m: 128, ny: 64, sz: 8, np: 4, k: 16, weight: 1}, // the Figure 1 configuration itself
	}
	var out []Scenario
	for i, c := range cfgs {
		src := Inner3DSource(Inner3DParams{
			M: c.m, NY: c.ny, SZ: c.sz, NP: c.np, Weight: c.weight,
			Salt: salt(seed, uint64(i)+200, 1<<16),
		})
		pair := int64(c.m * c.ny * c.sz / c.np * 4)
		out = append(out, Scenario{
			Name:   fmt.Sprintf("inner3d/m%d/ny%d/sz%d/np%d/K%d", c.m, c.ny, c.sz, c.np, c.k),
			Family: "inner3d", Source: src, NP: c.np, K: c.k, Seed: seed,
			PairBytes: pair, Regime: regimeFor(pair), Costs: heavyCosts(),
		})
	}
	return out
}

// indirectScenarios sweeps the Fig. 3(a) copy-loop shape (compute into a
// temporary through a subroutine, copy into As, exchange).
func indirectScenarios(seed int64) []Scenario {
	type cfg struct {
		n, np  int
		k      int64
		weight int
	}
	// The tile size must divide the partition size n/np (the temporary is
	// re-buffered every K iterations of the partitioned loop).
	cfgs := []cfg{
		{n: 16, np: 4, k: 4, weight: 1}, // eager: 4 KiB per pair
		{n: 20, np: 4, k: 5, weight: 1}, // eager: 8 KiB per pair
		{n: 24, np: 4, k: 6, weight: 1}, // eager: ~14 KiB per pair
		{n: 16, np: 8, k: 2, weight: 1}, // wider machine
		{n: 32, np: 4, k: 8, weight: 1}, // rendezvous: 32 KiB per pair
	}
	var out []Scenario
	for i, c := range cfgs {
		src := IndirectSource(IndirectParams{
			N: c.n, NP: c.np, Weight: c.weight,
			Salt: salt(seed, uint64(i)+300, 1<<16),
		})
		pair := int64(c.n * c.n * c.n / c.np * 4)
		out = append(out, Scenario{
			Name:   fmt.Sprintf("indirect/n%d/np%d/K%d", c.n, c.np, c.k),
			Family: "indirect", Source: src, NP: c.np, K: c.k, Seed: seed,
			PairBytes: pair, Regime: regimeFor(pair), Costs: heavyCosts(),
		})
	}
	return out
}

// fftScenarios dresses the inner-node-loop shape as the distributed FFT
// transpose (§2): butterfly-flavoured integer arithmetic feeding a global
// transpose.
func fftScenarios(seed int64) []Scenario {
	type cfg struct {
		m, rows, sz, np int
		k               int64
		weight          int
	}
	cfgs := []cfg{
		{m: 64, rows: 16, sz: 8, np: 4, k: 8, weight: 1}, // eager: 8 KiB per pair
		{m: 64, rows: 32, sz: 8, np: 4, k: 8},            // eager: 16 KiB per pair
		{m: 128, rows: 32, sz: 8, np: 4, k: 8},           // rendezvous: 32 KiB per pair
		{m: 64, rows: 16, sz: 16, np: 8, k: 4},           // wider machine
	}
	var out []Scenario
	for i, c := range cfgs {
		src := FFTSource(FFTParams{
			M: c.m, Rows: c.rows, SZ: c.sz, NP: c.np, Weight: c.weight,
			Salt: salt(seed, uint64(i)+400, 1<<16),
		})
		pair := int64(c.m * c.rows * c.sz / c.np * 4)
		out = append(out, Scenario{
			Name:   fmt.Sprintf("fft/m%d/rows%d/sz%d/np%d/K%d", c.m, c.rows, c.sz, c.np, c.k),
			Family: "fft", Source: src, NP: c.np, K: c.k, Seed: seed,
			PairBytes: pair, Regime: regimeFor(pair), Costs: heavyCosts(),
		})
	}
	return out
}

// luScenarios dresses the node-loop-outermost 2-D shape as an LU trailing
// update whose block columns are redistributed by an ALLTOALL; the node loop
// being outermost exercises the §3.5 interchange / subset-send paths.
func luScenarios(seed int64) []Scenario {
	type cfg struct {
		n, np  int
		k      int64
		weight int
	}
	cfgs := []cfg{
		{n: 32, np: 4, k: 8, weight: 3},   // eager: 1 KiB per pair, subset-send
		{n: 64, np: 4, k: 16, weight: 3},  // eager: 4 KiB per pair, interchanged
		{n: 128, np: 8, k: 16, weight: 2}, // eager, wider machine, interchanged
	}
	var out []Scenario
	for i, c := range cfgs {
		src := LUSource(LUParams{
			N: c.n, NP: c.np, Weight: c.weight,
			Salt: salt(seed, uint64(i)+500, 1<<16),
		})
		pair := int64(c.n * c.n / c.np * 4)
		out = append(out, Scenario{
			Name:   fmt.Sprintf("lu/n%d/np%d/K%d", c.n, c.np, c.k),
			Family: "lu", Source: src, NP: c.np, K: c.k, Seed: seed,
			PairBytes: pair, Regime: regimeFor(pair), Costs: heavyCosts(),
		})
	}
	return out
}

// sortScenarios dresses the direct 1-D shape as the sample-sort bucket
// scatter (§2): hash-flavoured key generation feeding the exchange.
func sortScenarios(seed int64) []Scenario {
	type cfg struct {
		nx, np int
		k      int64
		weight int
	}
	cfgs := []cfg{
		{nx: 4096, np: 4, k: 1024, weight: 4},  // eager: 4 KiB per pair
		{nx: 32768, np: 4, k: 8192, weight: 4}, // rendezvous: 32 KiB per pair
		{nx: 16384, np: 8, k: 2048, weight: 4}, // eager, wider machine
	}
	var out []Scenario
	for i, c := range cfgs {
		src := SortSource(SortParams{
			NX: c.nx, NP: c.np, Weight: c.weight,
			Salt: salt(seed, uint64(i)+600, 1<<16),
		})
		pair := int64(c.nx / c.np * 4)
		out = append(out, Scenario{
			Name:   fmt.Sprintf("sort/nx%d/np%d/K%d", c.nx, c.np, c.k),
			Family: "sort", Source: src, NP: c.np, K: c.k, Seed: seed,
			PairBytes: pair, Regime: regimeFor(pair), Costs: heavyCosts(),
		})
	}
	return out
}

// raggedScenarios exercises the §3.6 step-3 leftover exchange end-to-end:
// the tile size does not divide the tiled-loop extent, so every execution
// ends with a partial-tile exchange. The shifted variants also move the
// tiled loop onto a 0-based window (write subscript iy + 1), covering the
// affine-offset paths of the tile-region analysis.
func raggedScenarios(seed int64) []Scenario {
	type cfg struct {
		m, ny, sz, np int
		k             int64
		weight        int
		shifted       bool
	}
	cfgs := []cfg{
		{m: 32, ny: 21, sz: 8, np: 4, k: 8, weight: 2},                 // leftover 5, eager
		{m: 64, ny: 30, sz: 8, np: 4, k: 8, weight: 1},                 // leftover 6, eager
		{m: 128, ny: 33, sz: 8, np: 4, k: 16, weight: 1},               // leftover 1, rendezvous
		{m: 32, ny: 19, sz: 8, np: 4, k: 4, weight: 2, shifted: true},  // leftover 3, shifted window
		{m: 64, ny: 26, sz: 16, np: 8, k: 8, weight: 1, shifted: true}, // leftover 2, wider machine
	}
	var out []Scenario
	for i, c := range cfgs {
		p := Inner3DParams{
			M: c.m, NY: c.ny, SZ: c.sz, NP: c.np, Weight: c.weight,
			Salt: salt(seed, uint64(i)+700, 1<<16),
		}
		src := Inner3DSource(p)
		kind := "plain"
		if c.shifted {
			src = ShiftedInner3DSource(p)
			kind = "shifted"
		}
		pair := int64(c.m * c.ny * c.sz / c.np * 4)
		out = append(out, Scenario{
			Name:   fmt.Sprintf("ragged/%s/m%d/ny%d/sz%d/np%d/K%d", kind, c.m, c.ny, c.sz, c.np, c.k),
			Family: "ragged", Source: src, NP: c.np, K: c.k, Seed: seed,
			PairBytes: pair, Regime: regimeFor(pair), Costs: heavyCosts(),
		})
	}
	return out
}

// xchgScenarios sweeps the interchange-boundary family: node loop
// outermost with a legal §3.5 interchange, sized so the fixed granularity
// gate's verdict flips across the tile-size ladder. These are the
// scenarios where the plan's interchange knob is a real decision — the
// auto gate picks the balanced interchange at coarse tiles, but the
// staggered subset-send schedule often beats it there, so the multi-knob
// tuner can find plans no choice of K alone can express.
func xchgScenarios(seed int64) []Scenario {
	type cfg struct {
		m, ny, nz, np int
		k             int64
		weight        int
	}
	cfgs := []cfg{
		{m: 128, ny: 16, nz: 32, np: 4, k: 2, weight: 0}, // gate flips at K=4
		{m: 128, ny: 16, nz: 32, np: 4, k: 2, weight: 2}, // heavier compute, same boundary
		{m: 256, ny: 16, nz: 32, np: 4, k: 2, weight: 1}, // gate already on at the fixed K
		{m: 32, ny: 16, nz: 64, np: 4, k: 8, weight: 1},  // gate flips only at the coarsest tile
		{m: 64, ny: 8, nz: 64, np: 8, k: 4, weight: 0},   // wider machine, eager messages
	}
	var out []Scenario
	for i, c := range cfgs {
		src := XchgSource(XchgParams{
			M: c.m, NY: c.ny, NZ: c.nz, NP: c.np, Weight: c.weight,
			Salt: salt(seed, uint64(i)+800, 1<<16),
		})
		pair := int64(c.m * c.ny * c.nz / c.np * 4)
		out = append(out, Scenario{
			Name:   fmt.Sprintf("xchg/m%d/ny%d/nz%d/np%d/w%d/K%d", c.m, c.ny, c.nz, c.np, c.weight, c.k),
			Family: "xchg", Source: src, NP: c.np, K: c.k, Seed: seed,
			PairBytes: pair, Regime: regimeFor(pair), Costs: heavyCosts(),
		})
	}
	return out
}

// multiScenarios exercises site-keyed plan divergence end-to-end: each
// kernel contains two or three ALLTOALL sites in one unit — a fine-grained
// direct scatter feeding a bulky FFT-transpose-like phase (and optionally a
// second scatter) — with message sizes mismatched so the optimal tile size
// genuinely differs per site. The uniform fixed K is legal at every site;
// the per-site tuner should find divergent plans that beat any uniform one.
func multiScenarios(seed int64) []Scenario {
	type cfg struct {
		nx, m, ny, sz, nx3, np int
		k                      int64
		weight                 int
	}
	cfgs := []cfg{
		{nx: 1024, m: 128, ny: 16, sz: 8, np: 4, k: 8},            // fine scatter + rendezvous transpose
		{nx: 4096, m: 64, ny: 32, sz: 8, np: 4, k: 16, weight: 1}, // both eager, still mismatched
		{nx: 2048, m: 32, ny: 16, sz: 16, np: 8, k: 8},            // wider machine
		{nx: 1024, m: 64, ny: 16, sz: 8, nx3: 2048, np: 4, k: 8},  // three sites
	}
	var out []Scenario
	for i, c := range cfgs {
		p := MultiParams{
			NX: c.nx, M: c.m, NY: c.ny, SZ: c.sz, NX3: c.nx3, NP: c.np, Weight: c.weight,
			Salt: salt(seed, uint64(i)+900, 1<<16),
		}
		src := MultiSource(p)
		arrays := []string{"ar", "br"}
		if p.Sites() == 3 {
			arrays = append(arrays, "cr")
		}
		// The bulky transpose dominates the exchanged volume; its per-pair
		// payload classifies the scenario's regime.
		pair := int64(c.m * c.ny * c.sz / c.np * 4)
		out = append(out, Scenario{
			Name:   fmt.Sprintf("multi/s%d/nx%d/m%d/ny%d/sz%d/np%d/K%d", p.Sites(), c.nx, c.m, c.ny, c.sz, c.np, c.k),
			Family: "multi", Source: src, NP: c.np, K: c.k, Seed: seed,
			PairBytes: pair, Regime: regimeFor(pair), Costs: heavyCosts(),
			Arrays: arrays, Sites: p.Sites(),
		})
	}
	return out
}

// FFTParams sizes the FFT-transpose kernel: local butterflies along M for
// every (row, plane), then the global transpose ALLTOALL.
type FFTParams struct {
	M      int // butterfly dimension (contiguous)
	Rows   int // tiled dimension
	SZ     int // partitioned dimension; divisible by NP
	NP     int
	Weight int // extra butterfly stages per element
	Salt   int64
}

// FFTSource renders the FFT-transpose kernel.
func FFTSource(p FFTParams) string {
	s := absSalt(p.Salt)
	c1 := 97 + s%31
	c2 := 89 + (s/31)%23
	extra := ""
	for w := 0; w < p.Weight; w++ {
		extra += fmt.Sprintf("\n        t = t + mod(t*%d + w, %d) - mod(u + %d, 11)", w+2, 19+w, w+3)
	}
	return fmt.Sprintf(`
program ffttrans
  implicit none
  include 'mpif.h'
  integer, parameter :: m = %d
  integer, parameter :: rows = %d
  integer, parameter :: sz = %d
  integer, parameter :: np = %d
  integer as(1:m, 1:rows, 1:sz)
  integer ar(1:m, 1:rows, 1:sz)
  integer im, ir, is, ierr, me, w, u, t, checksum

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do ir = 1, rows
    do is = 1, sz
      do im = 1, m
        w = mod(im*ir + is, %d)
        u = mod(im + ir*is + me, %d)
        t = w*u - mod(im + is, 7)*(w + u)%s
        as(im, ir, is) = t + mod(t, 13)
      enddo
    enddo
  enddo
  call mpi_alltoall(as, m*rows*sz/np, mpi_integer, ar, m*rows*sz/np, mpi_integer, mpi_comm_world, ierr)
  checksum = 0
  do is = 1, sz
    do im = 1, m
      checksum = checksum + ar(im, 1, is)*im - ar(im, rows/2, is)
    enddo
  enddo
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program ffttrans
`, p.M, p.Rows, p.SZ, p.NP, c1, c2, extra)
}

// LUParams sizes the LU-update kernel: an N×N block whose columns (the
// partitioned dimension) are filled by an elimination-flavoured update with
// the node loop outermost — the §3.5 interchange configuration.
type LUParams struct {
	N      int // matrix order; divisible by NP
	NP     int
	Weight int // extra update terms per element
	Salt   int64
}

// LUSource renders the LU-update kernel.
func LUSource(p LUParams) string {
	s := absSalt(p.Salt)
	c1 := 17 + s%13
	c2 := 23 + (s/13)%11
	rhs := fmt.Sprintf("(i*j - piv*%d) + mod(i*%d + j, piv)", c2, c2)
	for w := 0; w < p.Weight; w++ {
		rhs = fmt.Sprintf("(%s) + mod(i*%d + j*%d, piv + %d)", rhs, w+2, w+3, w+1)
	}
	return fmt.Sprintf(`
program luupdate
  implicit none
  include 'mpif.h'
  integer, parameter :: n = %d
  integer, parameter :: np = %d
  integer as(1:n, 1:n)
  integer ar(1:n, 1:n)
  integer i, j, ierr, me, piv, checksum

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do j = 1, n
    do i = 1, n
      piv = mod(i + j + me, %d) + 1
      as(i, j) = %s
    enddo
  enddo
  call mpi_alltoall(as, n*n/np, mpi_integer, ar, n*n/np, mpi_integer, mpi_comm_world, ierr)
  checksum = ar(1, 1) + ar(n, n) + ar(n/2, n/2)
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program luupdate
`, p.N, p.NP, c1, rhs)
}

// SortParams sizes the sample-sort scatter kernel: a 1-D bucket array filled
// with hash-flavoured keys, exchanged all-to-all.
type SortParams struct {
	NX     int // keys; divisible by NP
	NP     int
	Weight int // extra hashing rounds per key
	Salt   int64
}

// SortSource renders the sort-scatter kernel.
func SortSource(p SortParams) string {
	s := absSalt(p.Salt)
	c1 := 7919 + s%997
	c2 := 104729 + (s/997)%9973
	rhs := fmt.Sprintf("mod(ix*%d + me*%d, 1000000) - mod(ix, 37)", c1, c2)
	for w := 0; w < p.Weight; w++ {
		rhs = fmt.Sprintf("(%s) + mod(ix*%d + me, %d) - mod(ix + %d, 41)", rhs, w+5, 9973+w, w+7)
	}
	return fmt.Sprintf(`
program sortscatter
  implicit none
  include 'mpif.h'
  integer, parameter :: nx = %d
  integer, parameter :: np = %d
  integer as(1:nx)
  integer ar(1:nx)
  integer ix, ierr, me, checksum

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do ix = 1, nx
    as(ix) = %s
  enddo
  call mpi_alltoall(as, nx/np, mpi_integer, ar, nx/np, mpi_integer, mpi_comm_world, ierr)
  checksum = ar(1) + ar(nx/2) + ar(nx)
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program sortscatter
`, p.NX, p.NP, rhs)
}
