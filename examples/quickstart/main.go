// Quickstart: transform the paper's Fig. 2(a) program with the
// Compuniformer, run the original and the pre-push version on the simulated
// cluster under both network stacks, and verify they produce identical
// output.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/plan"
)

// source is the paper's Fig. 2(a) structure — a computation loop nest that
// finalizes As, followed by MPI_ALLTOALL, inside an outer iteration loop —
// with a 2-D As so columns are big enough for the exchange to be
// bandwidth-bound (the regime the paper measures).
const source = `
program quickstart
  implicit none
  include 'mpif.h'
  integer, parameter :: m = 768
  integer, parameter :: ncols = 128
  integer, parameter :: np = 4
  integer as(1:m, 1:ncols)
  integer ar(1:m, 1:ncols)
  integer im, iy, rep, ierr, checksum

  call mpi_init(ierr)
  checksum = 0
  do rep = 1, 2
    do iy = 1, ncols
      do im = 1, m
        as(im, iy) = mod(im*3 + iy*7 + rep, 1000) + mod(im + iy, 13)*(im - iy)
      enddo
    enddo
    call mpi_alltoall(as, m*ncols/np, mpi_integer, ar, m*ncols/np, mpi_integer, mpi_comm_world, ierr)
    checksum = checksum + ar(1, 1) + ar(m, ncols) + ar(m/2, ncols/2)
  enddo
  print *, 'checksum', checksum
  call mpi_finalize(ierr)
end program quickstart
`

func main() {
	// 1. Transform: tile the column loop by K=8, so each tile finalizes 8
	//    columns (a 24 KiB block owned by one rank) and pre-pushes them
	//    with an asynchronous send while the next tile computes.
	prog, err := core.Analyze(source, core.AnalyzeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	transformed, report, err := core.Apply(prog, plan.Uniform(plan.Decision{K: 8}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Compuniformer report ===")
	fmt.Print(report)
	fmt.Println()
	fmt.Println("=== Transformed source (loop nest only) ===")
	printLoopNest(transformed)

	// 2. Run both versions on 4 simulated ranks under both stacks.
	fmt.Println("=== Simulated execution ===")
	for _, m := range plan.PaperPair() {
		orig := run(source, m)
		pre := run(transformed, m)
		same, why := interp.SameObservable(orig, pre, "ar")
		status := "outputs identical"
		if !same {
			status = "MISMATCH: " + why
		}
		fmt.Printf("%-15s original %-12s prepush %-12s  %s\n",
			m.Name, orig.Elapsed(), pre.Elapsed(), status)
	}
}

func run(src string, m plan.Machine) *interp.Result {
	res, err := exec.Runner{}.Run(src, 4, m.Costs, m.Profile)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// printLoopNest shows the interesting part of the transformed program: the
// outer loop with the inserted tile exchange.
func printLoopNest(src string) {
	lines := strings.Split(src, "\n")
	start, end := -1, -1
	for i, l := range lines {
		if strings.Contains(l, "do iy") {
			start = i
		}
		if start >= 0 && strings.Contains(l, "drain the last tile") {
			end = i + 4
			break
		}
	}
	if start < 0 || end < 0 || end > len(lines) {
		fmt.Println(src)
		return
	}
	for _, l := range lines[start:end] {
		fmt.Println(l)
	}
}
