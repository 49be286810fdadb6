// Command compuniformer is the paper's source-to-source transformer: it
// reads a Fortran program that exchanges arrays with MPI_ALLTOALL after a
// finalizing loop nest, and rewrites it to pre-push the data with
// asynchronous sends inside the loop (maximizing communication-computation
// overlap). It is a front-end over the Analyze → Plan → Apply pipeline:
// every run builds (or loads) a serializable overlap plan and replays it.
//
// Usage:
//
//	compuniformer [-k N] [-np N] [-machine name] [-report] [-verify]
//	              [-engine bytecode|walk]
//	              [-wait deferred|per-tile] [-send-order staggered|sequential]
//	              [-interchange auto|on|off] [-interchange-min-bytes N]
//	              [-skip-sites line:col,...|all]
//	              [-plan out.json] [-apply-plan in.json]
//	              [-answer proc:array=yes,...] [input.f90]
//
// The transformed source is written to stdout; the analysis report to
// stderr. Without an input file, stdin is read. -plan dumps the plan that
// was applied (with one site entry per analyzed MPI_ALLTOALL, so it can be
// edited per site and replayed with -apply-plan; "-" dumps to stdout in
// place of the transformed source). -apply-plan replays a previously
// dumped plan verbatim, ignoring the knob flags. -skip-sites marks the
// named sites (or "all") as identity decisions — the transformation is
// declined there and the site's code is left byte-for-byte untouched; a
// plan file can express the same thing with "skip": true per decision. With -verify, the
// static verification tier (internal/verify: translation validator + MPI
// schedule linter) first re-proves the transformation without executing
// anything, then both the original and the transformed program are executed
// on the simulated cluster under the selected machine models and their
// observable results compared (the paper's §4 correctness protocol); a
// static finding or a dynamic mismatch is a fatal error. -engine picks the
// execution engine for the dynamic runs: the bytecode tier (default) or the
// tree-walking oracle.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/verify"
)

func main() {
	k := flag.Int64("k", 0, "tile size: iterations of the finalized loop per tile (0 = machine default)")
	np := flag.Int64("np", 0, "target rank count (default: the program's 'np' parameter)")
	machineName := flag.String("machine", "mpich-gm-2005", "machine model the plan targets (see internal/plan)")
	report := flag.Bool("report", false, "print only the analysis report, not the transformed source")
	verifyFlag := flag.Bool("verify", false, "statically verify the transformation, then run original and transformed on the simulator and compare results")
	engineName := flag.String("engine", "", "execution engine for -verify: bytecode (default) or walk (tree-walking oracle)")
	wait := flag.String("wait", "", "wait schedule: deferred (default) or per-tile (the paper's §3.6 step 2)")
	sendOrder := flag.String("send-order", "", "subset-send order: staggered (default) or sequential (paper's owner order)")
	interchange := flag.String("interchange", "", "§3.5 interchange: auto (granularity gate, default), on, or off")
	interchangeMin := flag.Int64("interchange-min-bytes", 0, "auto-gate threshold in bytes (0 = default 2048)")
	planOut := flag.String("plan", "", "dump the applied plan as JSON to this path ('-' = stdout, replacing the source)")
	planIn := flag.String("apply-plan", "", "replay a plan JSON file instead of building one from flags")
	skipSites := flag.String("skip-sites", "", "comma-separated 'line:col' sites to leave untransformed ('all' skips every site)")
	answers := flag.String("answer", "", "semi-automatic oracle answers, e.g. 'fill:as=yes,trash:as=no'")
	flag.Parse()

	src, err := readInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	machine, err := plan.ByName(*machineName)
	if err != nil {
		fatal(err)
	}
	engine, err := exec.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compuniformer:", err)
		os.Exit(2) // usage error, like every other command's engine flag
	}

	aopts := core.AnalyzeOptions{NP: *np}
	if *answers != "" {
		oracle := analysis.MapOracle{}
		for _, kv := range strings.Split(*answers, ",") {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				fatal(fmt.Errorf("bad -answer entry %q (want proc:array=yes|no)", kv))
			}
			oracle[parts[0]] = parts[1] == "yes" || parts[1] == "true"
		}
		aopts.Oracle = oracle
	}

	prog, err := core.Analyze(src, aopts)
	if err != nil {
		fatal(err)
	}

	var pl *plan.Plan
	if *planIn != "" {
		b, err := os.ReadFile(*planIn)
		if err != nil {
			fatal(err)
		}
		if pl, err = plan.Decode(b); err != nil {
			fatal(err)
		}
	} else {
		pl = plan.Default(machine)
		pl.NP = *np
		d := &pl.Default
		if *k > 0 {
			d.K = *k
		}
		if *wait != "" {
			d.Wait = plan.WaitSchedule(*wait)
		}
		if *sendOrder != "" {
			d.SendOrder = plan.SendOrder(*sendOrder)
		}
		if *interchange != "" {
			d.Interchange = plan.Interchange(*interchange)
		}
		if *interchangeMin > 0 {
			d.InterchangeMinBlockBytes = *interchangeMin
		}
		// Materialize one entry per analyzed site so a dumped plan can be
		// edited per site before replaying.
		for i := range prog.Sites {
			pl.Set(prog.Sites[i].Key(), pl.Default)
		}
		// -skip-sites marks the named sites (or all of them) as identity
		// decisions: the transformation is advice, and "don't" is a
		// first-class per-site choice.
		if *skipSites != "" {
			for _, site := range strings.Split(*skipSites, ",") {
				site = strings.TrimSpace(site)
				if site == "all" {
					for i := range prog.Sites {
						pl.Set(prog.Sites[i].Key(), plan.Identity())
					}
					pl.Default = plan.Identity()
					continue
				}
				if prog.Site(site) == nil {
					fatal(fmt.Errorf("-skip-sites: site %q not found in the program (have %s)", site, siteList(prog)))
				}
				pl.Set(site, plan.Identity())
			}
		}
		if err := pl.Validate(); err != nil {
			fatal(err)
		}
	}

	out, rep, err := core.Apply(prog, pl)
	if err != nil {
		fatal(err)
	}
	fmt.Fprint(os.Stderr, rep)

	if *planOut != "" {
		b, err := pl.Encode()
		if err != nil {
			fatal(err)
		}
		if *planOut == "-" {
			fmt.Print(string(b))
		} else if err := os.WriteFile(*planOut, b, 0o644); err != nil {
			fatal(err)
		} else {
			fmt.Fprintf(os.Stderr, "plan written to %s\n", *planOut)
		}
	}

	if *verifyFlag {
		// Static tier first: it needs no execution, so its verdict arrives
		// before any simulated run and catches schedule defects a lucky
		// dynamic comparison could miss.
		if diags := verify.Variant(prog, pl, out, rep); len(diags) > 0 {
			fatal(fmt.Errorf("static verify: %s", verify.Summarize(diags)))
		}
		fmt.Fprintln(os.Stderr, "verify: static validator and MPI schedule linter clean")
	}
	if *verifyFlag && rep.TransformedCount() > 0 {
		npv, err := rankCount(rep)
		if err != nil {
			fatal(err)
		}
		if err := verifyEquivalence(src, out, npv, machine, engine); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "verify: original and transformed produce identical results on all machines")
	}
	if !*report && *planOut != "-" {
		fmt.Print(out)
	}
	// Exit 2 signals "the transformation did not fire" — but a site skipped
	// by plan is a deliberate identity decision, not a failure to fire.
	if rep.TransformedCount() == 0 && rep.SkippedCount() == 0 {
		os.Exit(2)
	}
}

// siteList renders the program's analyzed site keys for error messages.
func siteList(prog *core.Program) string {
	var keys []string
	for i := range prog.Sites {
		keys = append(keys, prog.Sites[i].Key())
	}
	return strings.Join(keys, ", ")
}

// rankCount is the rank count the transformed sites were specialized for:
// -np, else the plan's NP, else the program's np parameter, as each site
// resolved it. Sites resolving different counts cannot run as one program.
func rankCount(rep *core.Report) (int, error) {
	var np int64
	for _, s := range rep.Sites {
		if !s.Transformed {
			continue
		}
		if np != 0 && s.Result.NP != np {
			return 0, fmt.Errorf("verify: sites transformed for %d and for %d ranks", np, s.Result.NP)
		}
		np = s.Result.NP
	}
	return int(np), nil
}

// verifyEquivalence runs both versions on np simulated ranks under the paper
// pair plus the selected machine and compares printed output and the receive
// arrays.
func verifyEquivalence(src, transformed string, np int, selected plan.Machine, engine exec.Engine) error {
	machines := plan.PaperPair()
	have := false
	for _, m := range machines {
		if m.Name == selected.Name {
			have = true
		}
	}
	if !have {
		machines = append(machines, selected)
	}
	// One store for the call: each text compiles once for all machines.
	runner := exec.Runner{Engine: engine, Store: exec.NewMemStore()}
	for _, m := range machines {
		ro, err := runner.Run(src, np, m.Costs, m.Profile)
		if err != nil {
			return fmt.Errorf("verify: run original (%s): %w", m, err)
		}
		rt, err := runner.Run(transformed, np, m.Costs, m.Profile)
		if err != nil {
			return fmt.Errorf("verify: run transformed (%s): %w", m, err)
		}
		if same, why := interp.SameObservable(ro, rt, receiveArrays(ro, rt)...); !same {
			return fmt.Errorf("verify: MISMATCH under %s: %s", m, why)
		}
		fmt.Fprintf(os.Stderr, "verify: %-14s original %-12s prepush %-12s\n",
			m.Name, ro.Elapsed(), rt.Elapsed())
	}
	return nil
}

// receiveArrays returns the arrays present in both runs (the send array of
// an indirect site is dead in the transformed program, so only arrays both
// programs still hold comparable data for are checked; the printed output
// is always compared).
func receiveArrays(a, b *interp.Result) []string {
	var names []string
	if len(a.Arrays) == 0 || len(b.Arrays) == 0 {
		return names
	}
	for name := range a.Arrays[0] {
		if name == "ar" {
			names = append(names, name)
		}
	}
	return names
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
	fmt.Fprintln(os.Stderr, "compuniformer:", err)
	os.Exit(1)
}
