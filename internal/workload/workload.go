// Package workload generates the parametric Fortran kernels the evaluation
// uses: the paper's abstract target forms (Fig. 2a direct, Fig. 3a
// indirect, and the 3-D inner-node-loop form) at tunable sizes, dressed as
// the scenario corpus internal/harness sweeps, plus the paper's Figure 1
// configuration. It is shared by the harness, cmd/paperfigs and the
// examples so every consumer reproduces exactly the same series.
package workload

import (
	"fmt"
	"strings"
)

// DirectParams sizes the Fig. 2(a)-shaped kernel.
type DirectParams struct {
	NX     int // elements of As/Ar (1-D); must be divisible by NP
	Outer  int // outer iterations (each ends in an ALLTOALL)
	NP     int
	Weight int // extra arithmetic per element (compute intensity)
	// Salt deterministically perturbs the kernel's constant coefficients so
	// a corpus of scenarios exercises distinct data; 0 keeps the canonical
	// body (the golden fixtures). Negative values are folded to positive.
	Salt int64
}

// absSalt folds a salt to non-negative so coefficient arithmetic never
// renders a negative literal (which the Fortran subset cannot parse in
// multiplication position).
func absSalt(s int64) int64 {
	if s < 0 {
		return -s
	}
	return s
}

// DirectSource renders the kernel.
func DirectSource(p DirectParams) string {
	salt := absSalt(p.Salt)
	rhs := fmt.Sprintf("ix*%d + iy*%d", 3+salt%11, 7+(salt/11)%13)
	for w := 0; w < p.Weight; w++ {
		rhs = fmt.Sprintf("(%s) + mod(ix*%d + iy, 13) - mod(ix + iy*%d, 7)", rhs, w+2, w+3)
	}
	return fmt.Sprintf(`
program direct
  implicit none
  include 'mpif.h'
  integer, parameter :: nx = %d
  integer, parameter :: np = %d
  integer as(1:nx)
  integer ar(1:nx)
  integer ix, iy, ierr, checksum

  call mpi_init(ierr)
  checksum = 0
  do iy = 1, %d
    do ix = 1, nx
      as(ix) = %s
    enddo
    call mpi_alltoall(as, nx/np, mpi_integer, ar, nx/np, mpi_integer, mpi_comm_world, ierr)
    checksum = checksum + ar(1) + ar(nx)
  enddo
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program direct
`, p.NX, p.NP, p.Outer, rhs)
}

// Inner3DParams sizes the inner-node-loop (Fig. 4) kernel: a 3-D array
// whose last dimension is traversed by an inner loop, so every tile feeds
// all destinations.
type Inner3DParams struct {
	M      int // contiguous leading dimension
	NY     int // tiled dimension
	SZ     int // last (partitioned) dimension; divisible by NP
	NP     int
	Weight int
	Salt   int64 // deterministic coefficient perturbation; 0 = canonical
}

// Inner3DSource renders the kernel.
func Inner3DSource(p Inner3DParams) string {
	rhs := fmt.Sprintf("me + (im*iy + inode*%d)*(im - iy)", 3+absSalt(p.Salt)%17)
	for w := 0; w < p.Weight; w++ {
		rhs = fmt.Sprintf("(%s) + mod(im*%d + iy + inode, 17)*(im - %d)", rhs, w+2, w+1)
	}
	return fmt.Sprintf(`
program inner3d
  implicit none
  include 'mpif.h'
  integer, parameter :: m = %d
  integer, parameter :: ny = %d
  integer, parameter :: sz = %d
  integer, parameter :: np = %d
  integer as(1:m, 1:ny, 1:sz)
  integer ar(1:m, 1:ny, 1:sz)
  integer im, iy, inode, ierr, me, checksum

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do iy = 1, ny
    do inode = 1, sz
      do im = 1, m
        as(im, iy, inode) = %s
      enddo
    enddo
  enddo
  call mpi_alltoall(as, m*ny*sz/np, mpi_integer, ar, m*ny*sz/np, mpi_integer, mpi_comm_world, ierr)
  checksum = 0
  do inode = 1, sz
    do im = 1, m
      checksum = checksum + ar(im, 1, inode)*im - ar(im, ny/2, inode)
    enddo
  enddo
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program inner3d
`, p.M, p.NY, p.SZ, p.NP, rhs)
}

// ShiftedInner3DSource renders the inner-node-loop kernel with the tiled
// loop running over a shifted window (0..ny-1) and the write subscript
// offset back (iy + 1): same semantics as Inner3DSource, but the tiled
// loop's bounds no longer coincide with the array dimension, exercising the
// affine-offset paths of the tile-region analysis. Combined with a tile
// size that does not divide ny it drives the §3.6 step-3 leftover exchange.
func ShiftedInner3DSource(p Inner3DParams) string {
	rhs := fmt.Sprintf("me + (im*(iy + 1) + inode*%d)*(im - iy - 1)", 3+absSalt(p.Salt)%17)
	for w := 0; w < p.Weight; w++ {
		rhs = fmt.Sprintf("(%s) + mod(im*%d + iy + inode, 17)*(im - %d)", rhs, w+2, w+1)
	}
	return fmt.Sprintf(`
program inner3dsh
  implicit none
  include 'mpif.h'
  integer, parameter :: m = %d
  integer, parameter :: ny = %d
  integer, parameter :: sz = %d
  integer, parameter :: np = %d
  integer as(1:m, 1:ny, 1:sz)
  integer ar(1:m, 1:ny, 1:sz)
  integer im, iy, inode, ierr, me, checksum

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do iy = 0, ny - 1
    do inode = 1, sz
      do im = 1, m
        as(im, iy + 1, inode) = %s
      enddo
    enddo
  enddo
  call mpi_alltoall(as, m*ny*sz/np, mpi_integer, ar, m*ny*sz/np, mpi_integer, mpi_comm_world, ierr)
  checksum = 0
  do inode = 1, sz
    do im = 1, m
      checksum = checksum + ar(im, 1, inode)*im - ar(im, ny/2, inode)
    enddo
  enddo
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program inner3dsh
`, p.M, p.NY, p.SZ, p.NP, rhs)
}

// XchgParams sizes the interchange-boundary kernel: a 3-D array whose last
// (partitioned) dimension is traversed by the OUTERMOST loop of a perfect
// nest, so the node loop sits outermost and the §3.5 interchange with the
// middle loop is legal. The plan's interchange knob is a real decision
// here: applying the interchange yields the balanced Fig. 4 exchange with
// M·K-element contiguous blocks, while declining it yields the staggered
// subset-send schedule — and which one wins depends on the machine and the
// tile size, not on the fixed granularity gate alone.
type XchgParams struct {
	M      int // contiguous leading dimension (the interchange block unit)
	NY     int // middle dimension (the loop the interchange swaps outward)
	NZ     int // last (partitioned) dimension; divisible by NP
	NP     int
	Weight int // extra arithmetic per element (compute intensity)
	Salt   int64
}

// XchgSource renders the kernel.
func XchgSource(p XchgParams) string {
	s := absSalt(p.Salt)
	rhs := fmt.Sprintf("me*3 + ix*%d + iy*%d + inode*11 + mod(ix*iy, 17)", 5+s%7, 7+(s/7)%11)
	for w := 0; w < p.Weight; w++ {
		rhs = fmt.Sprintf("(%s) + mod(ix*%d + iy, 13) - mod(iy + inode*%d, 7)", rhs, w+2, w+3)
	}
	return fmt.Sprintf(`
program xchg
  implicit none
  include 'mpif.h'
  integer, parameter :: m = %d
  integer, parameter :: ny = %d
  integer, parameter :: nz = %d
  integer, parameter :: np = %d
  integer as(1:m, 1:ny, 1:nz)
  integer ar(1:m, 1:ny, 1:nz)
  integer ix, iy, inode, ierr, me, checksum

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do inode = 1, nz
    do iy = 1, ny
      do ix = 1, m
        as(ix, iy, inode) = %s
      enddo
    enddo
  enddo
  call mpi_alltoall(as, m*ny*nz/np, mpi_integer, ar, m*ny*nz/np, mpi_integer, mpi_comm_world, ierr)
  checksum = ar(1, 1, 1) + ar(m, ny, nz) + ar(m/2, ny/2, nz/2)
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program xchg
`, p.M, p.NY, p.NZ, p.NP, rhs)
}

// MultiParams sizes the multi-site kernel: two or three ALLTOALL sites in
// one program unit, each with its own finalizing loop and exchange arrays.
// Phase 1 is a direct 1-D scatter (fine-grained messages, favoring coarse
// tiles); phase 2 consumes phase 1's received data in an FFT-transpose-like
// inner-node-loop nest (bulky messages, favoring finer tiles); the optional
// phase 3 is a second direct scatter fed by phase 2. The deliberately
// mismatched message sizes make the optimal tile size genuinely differ per
// site, so a per-site plan can beat any uniform one.
type MultiParams struct {
	NX     int // phase-1 direct size; divisible by NP
	M      int // phase-2 contiguous leading dimension
	NY     int // phase-2 tiled dimension
	SZ     int // phase-2 partitioned dimension; divisible by NP
	NX3    int // phase-3 direct size (0 = two sites only); divisible by NP
	NP     int
	Weight int // extra arithmetic per element (compute intensity)
	Salt   int64
}

// Sites returns the number of ALLTOALL sites the rendered kernel contains.
func (p MultiParams) Sites() int {
	if p.NX3 > 0 {
		return 3
	}
	return 2
}

// MultiSource renders the multi-site kernel.
func MultiSource(p MultiParams) string {
	s := absSalt(p.Salt)
	rhs1 := fmt.Sprintf("ix*%d + me*%d", 3+s%11, 7+(s/11)%13)
	rhs2 := fmt.Sprintf("me + im*iy + inode*%d", 3+(s/143)%17)
	for w := 0; w < p.Weight; w++ {
		rhs1 = fmt.Sprintf("(%s) + mod(ix*%d + me, 13) - mod(ix + %d, 7)", rhs1, w+2, w+3)
		rhs2 = fmt.Sprintf("(%s) + mod(im*%d + iy + inode, 17)", rhs2, w+2)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `
program multi
  implicit none
  include 'mpif.h'
  integer, parameter :: nx = %d
  integer, parameter :: m = %d
  integer, parameter :: ny = %d
  integer, parameter :: sz = %d
  integer, parameter :: np = %d
`, p.NX, p.M, p.NY, p.SZ, p.NP)
	if p.NX3 > 0 {
		fmt.Fprintf(&sb, "  integer, parameter :: nc = %d\n", p.NX3)
	}
	sb.WriteString(`  integer as(1:nx)
  integer ar(1:nx)
  integer bs(1:m, 1:ny, 1:sz)
  integer br(1:m, 1:ny, 1:sz)
`)
	if p.NX3 > 0 {
		sb.WriteString("  integer cs(1:nc)\n  integer cr(1:nc)\n")
	}
	fmt.Fprintf(&sb, `  integer ix, iy, im, inode, ierr, me, checksum

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do ix = 1, nx
    as(ix) = %s
  enddo
  call mpi_alltoall(as, nx/np, mpi_integer, ar, nx/np, mpi_integer, mpi_comm_world, ierr)
  checksum = ar(1) + ar(nx/2) + ar(nx)
  do iy = 1, ny
    do inode = 1, sz
      do im = 1, m
        bs(im, iy, inode) = ar(mod(im*iy + inode, nx) + 1) + %s
      enddo
    enddo
  enddo
  call mpi_alltoall(bs, m*ny*sz/np, mpi_integer, br, m*ny*sz/np, mpi_integer, mpi_comm_world, ierr)
  do inode = 1, sz
    do im = 1, m
      checksum = checksum + br(im, 1, inode)*im - br(im, ny/2, inode)
    enddo
  enddo
`, rhs1, rhs2)
	if p.NX3 > 0 {
		rhs3 := fmt.Sprintf("br(mod(ix - 1, m) + 1, mod(ix - 1, ny) + 1, mod(ix - 1, sz) + 1) + ix*%d", 5+(s/2431)%7)
		fmt.Fprintf(&sb, `  do ix = 1, nc
    cs(ix) = %s
  enddo
  call mpi_alltoall(cs, nc/np, mpi_integer, cr, nc/np, mpi_integer, mpi_comm_world, ierr)
  checksum = checksum + cr(1) + cr(nc)
`, rhs3)
	}
	sb.WriteString(`  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program multi
`)
	return sb.String()
}

// IndirectParams sizes the Fig. 3(a)-shaped kernel (the paper's §4 test
// program pattern: indirect compute-copy through a temporary).
type IndirectParams struct {
	N      int // As is N×N×N; N divisible by NP
	NP     int
	Weight int
	Salt   int64 // deterministic coefficient perturbation; 0 = canonical
}

// IndirectSource renders the kernel.
func IndirectSource(p IndirectParams) string {
	salt := absSalt(p.Salt)
	rhs := fmt.Sprintf("i*%d + iy*%d + me", 1000+salt%97, 10+(salt/97)%7)
	for w := 0; w < p.Weight; w++ {
		rhs = fmt.Sprintf("(%s) + mod(i*%d + iy, 19)*(i - iy)", rhs, w+2)
	}
	n2 := p.N * p.N
	return fmt.Sprintf(`
program indirect
  implicit none
  include 'mpif.h'
  integer, parameter :: n = %d
  integer, parameter :: np = %d
  integer as(1:n, 1:n, 1:n)
  integer ar(1:n, 1:n, 1:n)
  integer at(1:%d)
  integer iy, ix, tx, ty, ierr, me, checksum

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do iy = 1, n
    call p(iy, me, at)
    do ix = 1, %d
      tx = mod(ix - 1, n) + 1
      ty = (ix - 1)/n + 1
      as(tx, ty, iy) = at(ix)
    enddo
  enddo
  call mpi_alltoall(as, %d, mpi_integer, ar, %d, mpi_integer, mpi_comm_world, ierr)
  checksum = 0
  do iy = 1, n
    do ix = 1, n
      checksum = checksum + ar(ix, iy, 1)*ix + ar(iy, ix, n/2)
    enddo
  enddo
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program indirect

subroutine p(iy, me, at)
  integer iy, me
  integer at(*)
  integer i
  do i = 1, %d
    at(i) = %s
  enddo
end subroutine p
`, p.N, p.NP, n2, n2, n2*p.N/p.NP, n2*p.N/p.NP, n2, rhs)
}
