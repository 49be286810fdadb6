// Command benchmark is the repository's layered benchmark. One invocation
// runs one workload: set-up, a fixed number of timed rounds over a fixed,
// seed-determined op list, and a check phase; it prints every metric by name
// with its unit and, as the last line, the result object BENCHMARK.json
// describes. See README.md in this directory.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

func main() {
	var cfg runConfig
	var trace int
	var selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see -list); empty with -quick or -selfcheck means all")
	flag.Int64Var(&cfg.seed, "seed", 0, "corpus seed; 0 is the canonical corpus of BENCH_harness.json")
	flag.IntVar(&cfg.seconds, "seconds", nominalSeconds, "nominal length of the timed region; scales the round counts")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write the spans to this file as JSON")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke mode: two rounds over truncated inputs; numbers are not comparable")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run each workload twice in fresh processes and compare the runs against the bounds")
	list := flag.Bool("list", false, "list the workloads and exit")
	selectOnly := flag.Bool("select-sim", false, "internal: print the sim ranking's selection as JSON and exit")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	if *selectOnly {
		err = printSimSelection(cfg)
	} else {
		err = run(cfg, selfcheck, *list)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig, selfcheck, list bool) error {
	switch {
	case list:
		for _, w := range workloads() {
			fmt.Printf("%-14s %s\n", w.name, w.why)
		}
		return nil
	case flag.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case cfg.seconds < 1:
		return fmt.Errorf("-seconds must be at least 1")
	case selfcheck:
		return selfCheck(cfg)
	case cfg.workload == "" && cfg.quick:
		// The smoke pass: every workload, one fresh process each.
		for _, w := range workloads() {
			child := cfg
			child.workload = w.name
			if _, err := runChild(child, os.Stdout); err != nil {
				return err
			}
		}
		return nil
	}
	w := findWorkload(cfg.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q (see -list)", cfg.workload)
	}
	var selected *simSelection
	if w.sim {
		var err error
		if selected, err = selectSimInChild(cfg); err != nil {
			return fmt.Errorf("%s: input selection: %w", w.name, err)
		}
	}
	res, err := runWorkload(w, cfg, selected, os.Stdout)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printSimSelection is the child side of selectSimInChild.
func printSimSelection(cfg runConfig) error {
	sel, err := selectSim(cfg)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(sel)
}

// selectSimInChild runs the sim ranking in a child process of this binary.
// The ranking runs 120 programs on every core; in this process it would set
// the memory peak that peak_rss_mb reports, and set it differently each run.
func selectSimInChild(cfg runConfig) (*simSelection, error) {
	out, err := runSelf(cfg, "-select-sim")
	if err != nil {
		return nil, err
	}
	var sel simSelection
	if err := json.Unmarshal(out, &sel); err != nil {
		return nil, fmt.Errorf("decode selection: %w", err)
	}
	return &sel, nil
}

// runChild runs one workload in a fresh process of this binary — one
// process per workload, so heap state and memory peaks never leak from one
// into the next — echoes its output, and decodes its result line.
func runChild(cfg runConfig, echo *os.File) (*result, error) {
	args := []string{"-workload", cfg.workload, "-seconds", fmt.Sprint(cfg.seconds)}
	if cfg.trace {
		args = append(args, "-trace", "1")
	}
	out, err := runSelf(cfg, args...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if echo != nil {
		if _, err := echo.Write(out); err != nil {
			return nil, err
		}
	}
	return lastResult(out)
}

// runSelf runs this binary with args plus the seed and -quick of cfg, its
// standard error passed through, and returns its standard output.
func runSelf(cfg runConfig, args ...string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args = append(args, "-seed", fmt.Sprint(cfg.seed))
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// lastResult decodes the result object from the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("last output line is not a result object: %w", err)
	}
	return &res, nil
}

// selfCheck is the repeatability gate: every workload (or the one named)
// runs twice back to back in fresh processes, untraced and traced. It fails
// if an end-to-end metric differs between the two runs by more than its
// bound, if any exact per-layer metric differs at all, or if any op failed.
func selfCheck(cfg runConfig) error {
	var bad []string
	for _, w := range workloads() {
		if cfg.workload != "" && cfg.workload != w.name {
			continue
		}
		child := cfg
		child.workload = w.name
		for _, traced := range []bool{false, true} {
			child.trace = traced
			var runs [2]*result
			for i := range runs {
				res, err := runChild(child, nil)
				if err != nil {
					return err
				}
				if !res.Correct {
					bad = append(bad, fmt.Sprintf("%s: %d of %d ops failed", w.name, res.Failed, res.Attempted))
				}
				runs[i] = res
			}
			if runs[0].Attempted != runs[1].Attempted {
				bad = append(bad, fmt.Sprintf("%s: attempted %d then %d", w.name, runs[0].Attempted, runs[1].Attempted))
			}
			defs := endToEnd()
			if traced {
				defs = perLayer()
			}
			fmt.Printf("%s (trace %v)\n", w.name, traced)
			for _, d := range defs {
				a, b := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value
				rel := relDiff(a, b)
				verdict := ""
				switch {
				case d.Exact && a != b:
					verdict = "  EXACT METRIC DIFFERS"
				case !traced && !cfg.quick && rel > d.Bound:
					verdict = fmt.Sprintf("  EXCEEDS BOUND %g", d.Bound)
				}
				if verdict != "" {
					bad = append(bad, fmt.Sprintf("%s %s: %.9g then %.9g", w.name, d.Name, a, b))
				}
				fmt.Printf("  %-36s %16.9g %16.9g %+9.4f%s\n", d.Name, a, b, signedRel(a, b), verdict)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("selfcheck ok")
	return nil
}

// signedRel is (b-a)/a, the second run's change against the first.
func signedRel(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}

// relDiff is the size of that change.
func relDiff(a, b float64) float64 { return math.Abs(signedRel(a, b)) }
