package examples_test

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/plan"
)

// quickstart is the paper's Fig. 2(a) structure — a computation loop nest
// that finalizes As, followed by MPI_ALLTOALL, inside an outer iteration
// loop — with a 2-D As so columns are big enough for the exchange to be
// bandwidth-bound (the regime the paper measures).
const quickstart = `
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

// Example_quickstart transforms the program with the Compuniformer, runs the
// original and the pre-push version on 4 simulated ranks under both network
// stacks of the paper, and checks that they produce identical output. Tiling
// the column loop by K=8 makes each tile finalize 8 columns (a 24 KiB block
// owned by one rank), pre-pushed with an asynchronous send while the next
// tile computes. Virtual time is deterministic, so the timings are exact.
//
//	go test ./examples -run Example_quickstart -v
func Example_quickstart() {
	prog, err := core.Analyze(quickstart, core.AnalyzeOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	transformed, report, err := core.Apply(prog, plan.Uniform(plan.Decision{K: 8}))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(report)

	// The tiled loop nest down to the post-send branch.
	lines := strings.Split(transformed, "\n")
	for i, l := range lines {
		if strings.Contains(l, "do iy") {
			fmt.Println(strings.Join(lines[i:i+9], "\n"))
			break
		}
	}

	for _, m := range plan.PaperPair() {
		var res [2]*interp.Result
		for i, src := range []string{quickstart, transformed} {
			if res[i], err = (exec.Runner{}).Run(src, 4, m.Costs, m.Profile); err != nil {
				fmt.Println(err)
				return
			}
		}
		same, why := interp.SameObservable(res[0], res[1], "ar")
		if same {
			why = "outputs identical"
		}
		fmt.Printf("%-15s original %-9s prepush %-9s %s\n", m.Name, res[0].Elapsed(), res[1].Elapsed(), why)
	}
	// Output:
	// compuniformer: 1 site(s), 1 transformed
	//   20:5: transformed (direct pattern, node loop outermost, K=8, NP=4, 3 msgs/tile)
	//     staggered subset-send schedule: ring partition order per rank, receives pre-posted (incast fix)
	//     note: 1 of 1 writes to as are safe references
	//     note: interchange of "iy" and "im" is legal: node loop moves inward (block granularity 1 elems × K)
	//         do iy = cc_it, cc_it + 7
	//           do im = 1, m
	//             as(im, iy) = mod(im * 3 + iy * 7 + rep, 1000) + mod(im + iy, 13) * (im - iy)
	//           enddo
	//         enddo
	//         cc_off = cc_tt * 8
	//         if (cc_to /= cc_me) then
	//           cc_nreq = cc_nreq + 1
	//           call mpi_isend(as(1, cc_lo), 6144, mpi_integer, cc_to, cc_tile, mpi_comm_world, cc_reqs(cc_nreq), cc_ierr)
	// mpich-tcp-2005  original 13.080ms  prepush 13.437ms  outputs identical
	// mpich-gm-2005   original 7.535ms   prepush 6.059ms   outputs identical
}
