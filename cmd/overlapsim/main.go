// Command overlapsim runs a Fortran program of the supported subset on the
// simulated cluster and reports virtual execution time, per-rank compute
// and blocked breakdowns, and message statistics.
//
// Usage:
//
//	overlapsim [-np N] [-profile mpich-tcp-2005|mpich-gm-2005|hpc-rdma-2019]
//	           [-eager BYTES] [-elem-ns N] [-quiet] [input.f90]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/exec"
	"repro/internal/netsim"
	"repro/internal/plan"
)

func main() {
	np := flag.Int("np", 4, "number of simulated ranks")
	profName := flag.String("profile", "mpich-gm-2005", "machine model (mpich-tcp-2005, mpich-gm-2005, hpc-rdma-2019)")
	eager := flag.Int64("eager", 0, "override the machine's eager threshold (bytes)")
	elemNs := flag.Int64("elem-ns", 0, "override per-array-store compute cost (ns)")
	quiet := flag.Bool("quiet", false, "suppress program output, print only statistics")
	flag.Parse()

	m, err := plan.ByName(*profName)
	if err != nil {
		fatal(err)
	}
	if *eager > 0 {
		m.Profile.EagerThreshold = *eager
	}
	if *elemNs > 0 {
		m.Costs.Store = netsim.Time(*elemNs)
	}

	src, err := readInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	res, err := exec.Runner{}.Run(src, *np, m.Costs, m.Profile)
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		for _, line := range res.OutputLines() {
			fmt.Println(line)
		}
	}
	fmt.Printf("profile   %s\n", m.Name)
	fmt.Printf("ranks     %d\n", *np)
	fmt.Printf("elapsed   %s\n", res.Elapsed())
	fmt.Printf("messages  %d (%d bytes)\n", res.Stats.Messages, res.Stats.Bytes)
	for i, rs := range res.Stats.PerRank {
		fmt.Printf("rank %-3d  finish %-12s compute %-12s blocked %-12s\n",
			i, rs.Finish, rs.Compute, rs.Blocked)
	}
}

func readInput(path string) (string, error) {
	if path == "" || path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "overlapsim:", err)
	os.Exit(1)
}
