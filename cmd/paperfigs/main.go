// Command paperfigs regenerates every figure of the paper in textual form:
//
//	Figure 1 — normalized execution times of original vs. pre-push under
//	           the MPICH-TCP and MPICH-GM stacks (the measured figure);
//	Figure 2 — the direct-pattern code before/after transformation;
//	Figure 3 — the indirect-pattern code before/after copy removal;
//	Figure 4 — the generated staggered communication code.
//
// Usage:
//
//	paperfigs [-fig 1|2|3|4|all]
//	paperfigs -dir testdata
//
// With -dir the code figures are written, instead of printed, as the golden
// fixtures that pin the Compuniformer's codegen: figure2_before.f90,
// figure2_after.f90, figure3_before.f90, figure3_after.f90 and
// figure4_commcode.f90. They are the reviewed transformation outputs;
// internal/core's golden tests compare against them byte for byte, so any
// codegen change shows up as a diff there first.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate (1, 2, 3, 4, all)")
	dir := flag.String("dir", "", "write figures 2-4 into this directory as the golden fixtures instead of printing")
	flag.Parse()

	if *dir != "" {
		if err := writeFixtures(*dir); err != nil {
			fatal(err)
		}
		return
	}
	shown := false
	show := func(name string, print func(io.Writer) error) {
		if *fig != "all" && *fig != name {
			return
		}
		shown = true
		if err := print(os.Stdout); err != nil {
			fatal(err)
		}
	}
	show("1", figure1)
	for _, f := range codeFigures() {
		show(f.name, f.print)
	}
	if !shown {
		fatal(fmt.Errorf("unknown figure %q", *fig))
	}
}

func header(w io.Writer, title string) {
	fmt.Fprintln(w, strings.Repeat("=", 72))
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("=", 72))
}

func figure1(w io.Writer) error {
	header(w, "Figure 1: performance improvement achieved by pre-pushing")
	rows, err := harness.Figure1()
	if err != nil {
		return err
	}
	sc, tileFor := workload.Figure1()
	fmt.Fprintf(w, "kernel=%s np=%d\n", sc.Name, sc.NP)
	type bar struct {
		label       string
		ns, blocked int64
	}
	var bars []bar
	for _, r := range rows {
		bars = append(bars,
			bar{r.Profile + " original", r.OriginalNs, r.OriginalBlockedNs},
			bar{fmt.Sprintf("%s prepush K=%d", r.Profile, tileFor[r.Profile]), r.PrepushNs, r.PrepushBlockedNs})
	}
	best := bars[0].ns
	for _, b := range bars {
		if b.ns < best {
			best = b.ns
		}
	}
	fmt.Fprintf(w, "%-28s %14s %12s %10s\n", "machine variant", "time", "blocked", "normalized")
	for _, b := range bars {
		fmt.Fprintf(w, "%-28s %14s %12s %10.2f\n", b.label, netsim.Time(b.ns), netsim.Time(b.blocked), float64(b.ns)/float64(best))
	}
	fmt.Fprintln(w, "\nbars (normalized execution time, smaller is better):")
	for _, b := range bars {
		n := float64(b.ns) / float64(best)
		fmt.Fprintf(w, "  %-28s %-6.2f %s\n", b.label, n, strings.Repeat("#", int(n*24)))
	}
	fmt.Fprintln(w)
	return nil
}

// codeFigure is one of Figures 2–4: a kernel and the tile size it is
// transformed at. This is the one copy — the printed figures and the -dir
// fixtures both come from it.
type codeFigure struct {
	name, title, after string // after captions the transformed code
	src                string
	k                  int64
	blockOnly          bool // show only the generated exchange block (Fig. 4)
}

func codeFigures() []codeFigure {
	return []codeFigure{
		{"2", "Figure 2: direct-pattern target code before and after transformation", "K = 4",
			workload.DirectSource(workload.DirectParams{NX: 64, Outer: 4, NP: 8, Weight: 0}), 4, false},
		{"3", "Figure 3: indirect pattern before and after removing the redundant copy",
			"K = 2, temporary expanded with a buffer dimension",
			workload.IndirectSource(workload.IndirectParams{N: 8, NP: 4, Weight: 0}), 2, false},
		{"4", "Figure 4: generated communication code (staggered all-peers exchange)", "",
			workload.Inner3DSource(workload.Inner3DParams{M: 4, NY: 16, SZ: 8, NP: 4, Weight: 0}), 4, true},
	}
}

// transformed runs Analyze → Apply with the uniform plan at the figure's
// tile size and insists exactly one site fired; a block-only figure keeps
// just the generated pre-push exchange, like the paper's Figure 4.
func (f codeFigure) transformed() (string, error) {
	prog, err := core.Analyze(f.src, core.AnalyzeOptions{})
	if err != nil {
		return "", err
	}
	out, rep, err := core.Apply(prog, plan.Uniform(plan.Decision{K: f.k}))
	if err != nil {
		return "", err
	}
	if rep.TransformedCount() != 1 {
		return "", fmt.Errorf("transform did not fire:\n%s", rep)
	}
	if !f.blockOnly {
		return out, nil
	}
	lines := strings.Split(out, "\n")
	start, end := -1, -1
	for i, l := range lines {
		if strings.Contains(l, "pre-push tile exchange") {
			start = i - 1
		}
		if start >= 0 && strings.Contains(l, "local copy of this rank") {
			end = i
			break
		}
	}
	if start < 0 || end < 0 {
		return "", fmt.Errorf("exchange block not found in transformed source")
	}
	return strings.Join(lines[start:end], "\n") + "\n", nil
}

func (f codeFigure) print(w io.Writer) error {
	header(w, f.title)
	out, err := f.transformed()
	if err != nil {
		return err
	}
	if f.blockOnly {
		fmt.Fprintln(w, out)
	} else {
		fmt.Fprintf(w, "--- (a) before ---\n%s\n--- (b) after (%s) ---\n%s\n\n", f.src, f.after, out)
	}
	return nil
}

// writeFixtures writes the code figures as the golden fixtures under dir.
func writeFixtures(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range codeFigures() {
		out, err := f.transformed()
		if err != nil {
			return fmt.Errorf("figure%s: %w", f.name, err)
		}
		files := [][2]string{{"before", f.src}, {"after", out}}
		if f.blockOnly {
			files = [][2]string{{"commcode", out}}
		}
		for _, file := range files {
			path := filepath.Join(dir, "figure"+f.name+"_"+file[0]+".f90")
			if err := os.WriteFile(path, []byte(file[1]), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d bytes)\n", path, len(file[1]))
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperfigs:", err)
	os.Exit(1)
}
