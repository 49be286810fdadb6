// FFT transpose: multi-dimensional FFTs are one of the paper's motivating
// applications (§2). The distributed algorithm computes 1-D transforms
// along the local dimension, then performs an all-to-all transpose, then
// transforms along the other dimension. The transpose is exactly the
// compute-then-ALLTOALL structure the Compuniformer targets: each column
// group is finalized by the butterfly loop before the exchange.
//
// This example expresses the butterfly + transpose step in the Fortran
// subset (with an integer butterfly standing in for the complex one so
// results compare exactly), transforms it, and measures both versions.
//
//	go run ./examples/fft
package main

import (
	"fmt"
	"log"

	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/workload"
)

// fftSource builds the kernel: rows = local chunk of the 2-D signal,
// sz = the partitioned dimension exchanged in the transpose.
const fftSource = `
program ffttranspose
  implicit none
  include 'mpif.h'
  integer, parameter :: m = 128
  integer, parameter :: rows = 32
  integer, parameter :: sz = 16
  integer, parameter :: np = 4
  integer as(1:m, 1:rows, 1:sz)
  integer ar(1:m, 1:rows, 1:sz)
  integer im, ir, is, ierr, me, checksum
  integer w, u, t

  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)

  ! stage 1: local butterflies along m for every (row, plane);
  ! an integer butterfly (u + w*t style) keeps results exactly comparable
  do ir = 1, rows
    do is = 1, sz
      do im = 1, m
        w = mod(im*ir + is, 97)
        u = mod(im + ir*is + me, 89)
        t = w*u - mod(im + is, 7)*(w + u)
        as(im, ir, is) = t + mod(t, 13)
      enddo
    enddo
  enddo

  ! stage 2: global transpose (the alltoall the paper's §2 describes)
  call mpi_alltoall(as, m*rows*sz/np, mpi_integer, ar, m*rows*sz/np, mpi_integer, mpi_comm_world, ierr)

  ! stage 3: local butterflies along the received dimension
  checksum = 0
  do is = 1, sz
    do im = 1, m
      checksum = checksum + ar(im, 1, is)*im - ar(im, rows/2, is)
    enddo
  enddo
  print *, 'fft checksum', checksum
  call mpi_finalize(ierr)
end program ffttranspose
`

func main() {
	fmt.Println("FFT transpose workload (paper §2 motivating application)")
	fmt.Println()
	rep, err := harness.Run(harness.Config{
		Scenarios: []workload.Scenario{{Name: "fft-transpose", Source: fftSource, NP: 4, K: 16}},
		Machines:  plan.PaperPair(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Table())
	if rep.Summary.Correct != 1 {
		log.Fatal("original and prepush runs differ")
	}

	// Show how overlap shifts the breakdown on the offload stack.
	fmt.Println("\nper-rank time blocked in MPI (average), original → prepush:")
	for _, pr := range rep.Scenarios[0].Profiles {
		fmt.Printf("  %-15s %-12s → %s\n", pr.Profile,
			netsim.Time(pr.OriginalBlockedNs), netsim.Time(pr.PrepushBlockedNs))
	}
}
