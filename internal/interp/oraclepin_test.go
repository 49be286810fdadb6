package interp_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/workload"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/oracle_pin.txt from this tree's walker")

const pinFile = "testdata/oracle_pin.txt"

// pinDigest hashes everything one walk run observes: per-rank output lines,
// final arrays as raw bits, makespan, traffic and the per-rank compute and
// blocked times.
func pinDigest(res *interp.Result) string {
	h := sha256.New()
	for r, lines := range res.Output {
		fmt.Fprintf(h, "rank %d: %d lines\n", r, len(lines))
		for _, l := range lines {
			fmt.Fprintf(h, "%s\n", l)
		}
	}
	for r, arrs := range res.Arrays {
		names := make([]string, 0, len(arrs))
		for n := range arrs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			switch data := arrs[n].(type) {
			case []int64:
				fmt.Fprintf(h, "rank %d int %s %d\n", r, n, len(data))
				binary.Write(h, binary.LittleEndian, data)
			case []float64:
				fmt.Fprintf(h, "rank %d real %s %d\n", r, n, len(data))
				bits := make([]uint64, len(data))
				for i, f := range data {
					bits[i] = math.Float64bits(f)
				}
				binary.Write(h, binary.LittleEndian, bits)
			default:
				fmt.Fprintf(h, "rank %d array %s of %T\n", r, n, data)
			}
		}
	}
	fmt.Fprintf(h, "end %d messages %d bytes %d\n", int64(res.Elapsed()), res.Stats.Messages, res.Stats.Bytes)
	for r, rs := range res.Stats.PerRank {
		fmt.Fprintf(h, "rank %d compute %d blocked %d finish %d\n", r, int64(rs.Compute), int64(rs.Blocked), int64(rs.Finish))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// pinFailures are programs the walker must reject with exactly the recorded
// text (position included).
var pinFailures = []struct{ name, src string }{
	{"undeclared read under implicit none", `
program p
  implicit none
  integer a
  a = x + 1
end program p
`},
	{"undeclared store under implicit none", `
program p
  implicit none
  x = 1
end program p
`},
	{"assignment to named constant", `
program p
  integer, parameter :: n = 4
  n = 5
end program p
`},
	{"whole array in scalar context", `
program p
  integer a(1:4)
  integer s
  s = a + 1
end program p
`},
	{"assignment to non-array", `
program p
  integer x, i
  i = 2
  x(i) = 3
end program p
`},
	{"subscript out of bounds", `
program p
  integer a(1:4)
  integer i
  do i = 1, 5
    a(i) = i
  enddo
end program p
`},
	{"load out of bounds", `
program p
  integer a(0:3, 2)
  integer s
  s = a(1, 3)
end program p
`},
	{"integer division by zero", `
program p
  integer a, b
  b = 0
  a = 7/b
end program p
`},
	{"mod by zero", `
program p
  integer a
  a = mod(7, a - a)
end program p
`},
	{"non-logical if", `
program p
  integer a
  a = 1
  if (a) then
    a = 2
  endif
end program p
`},
	{"zero do step", `
program p
  integer i, s
  s = 0
  do i = 1, 4, s
    s = s + 1
  enddo
end program p
`},
	{"unknown subroutine", `
program p
  call nosuch(1)
end program p
`},
	{"wrong argument count", `
program p
  integer x
  call two(x)
end program p

subroutine two(a, b)
  integer a, b
  a = b
end subroutine two
`},
	{".not. of non-logical", `
program p
  logical l
  integer i
  i = 3
  l = .not. i
end program p
`},
	{".and. of non-logical", `
program p
  logical l
  l = .true. .and. 3
end program p
`},
	{"unknown intrinsic", `
program p
  integer s
  s = nosuch(3)
end program p
`},
	{"error inside a subroutine", `
program p
  integer v(1:3)
  call fill(v, 4)
end program p

subroutine fill(a, n)
  integer n
  integer a(1:3)
  integer j
  do j = 1, n
    a(j) = j
  enddo
end subroutine fill
`},
}

// TestOraclePin holds the tree-walker to a digest file generated before its
// value layout and name resolution were reworked. The bytecode engine
// shares Value, NumericBinop, EvalIntrinsic and Array with the walker, so
// the engine differential alone could see both agree on a wrong answer; this file is the independent witness. Regenerate only for an
// intended change of the simulated semantics: go test ./internal/interp -run
// TestOraclePin -update.
func TestOraclePin(t *testing.T) {
	scenarios := workload.GenerateScenarios(workload.GenOptions{})
	if len(scenarios) < 40 {
		t.Fatalf("corpus has %d scenarios, want >= 40", len(scenarios))
	}
	if testing.Short() {
		if *updatePin {
			t.Fatal("-update needs the full corpus: drop -short")
		}
		scenarios = scenarios[:9] // one of each family
	}

	var mu sync.Mutex
	got := map[string]string{}
	record := func(key, val string) {
		mu.Lock()
		got[key] = val
		mu.Unlock()
	}

	t.Run("corpus", func(t *testing.T) {
		for _, sc := range scenarios {
			sc := sc
			t.Run(sc.Name, func(t *testing.T) {
				t.Parallel()
				prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
				if err != nil {
					t.Fatalf("analyze: %v", err)
				}
				transformed, rep, err := core.Apply(prog, plan.Uniform(plan.Decision{K: sc.K}))
				if err != nil {
					t.Fatalf("apply: %v", err)
				}
				if rep.TransformedCount() == 0 {
					t.Fatalf("transform did not fire: %s", rep.FirstRejection())
				}
				for vi, src := range []string{sc.Source, transformed} {
					p, err := interp.Load(src)
					if err != nil {
						t.Fatalf("load variant %d: %v", vi, err)
					}
					for _, m := range plan.DefaultSweep() {
						p.Costs = m.Costs
						if sc.Costs != nil {
							p.Costs = *sc.Costs
						}
						res, err := p.Run(sc.NP, m.Profile)
						if err != nil {
							t.Fatalf("variant %d on %s: %v", vi, m.Name, err)
						}
						variant := "original"
						if vi == 1 {
							variant = "prepush"
						}
						record(fmt.Sprintf("run %s %s %s", sc.Name, variant, m.Name), pinDigest(res))
					}
				}
			})
		}
	})
	for _, f := range pinFailures {
		p, err := interp.Load(f.src)
		if err != nil {
			t.Fatalf("%s: load: %v", f.name, err)
		}
		_, err = p.Run(1, netsim.MPICHGM())
		if err == nil {
			t.Fatalf("%s: ran clean, want an error", f.name)
		}
		if strings.ContainsAny(err.Error(), "\n") {
			t.Fatalf("%s: multi-line error %q", f.name, err)
		}
		record("error "+f.name, err.Error())
	}
	if t.Failed() {
		return
	}

	if *updatePin {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var buf bytes.Buffer
		for _, k := range keys {
			fmt.Fprintf(&buf, "%s: %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(pinFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(keys), pinFile)
		return
	}

	data, err := os.ReadFile(pinFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		i := strings.Index(line, ": ")
		if i < 0 {
			t.Fatalf("%s: malformed line %q", pinFile, line)
		}
		want[line[:i]] = line[i+2:]
	}
	for k, g := range got {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: not in %s", k, pinFile)
		} else if g != w {
			t.Errorf("%s:\n  got  %s\n  want %s", k, g, w)
		}
	}
	if !testing.Short() && len(got) != len(want) {
		t.Errorf("%s pins %d entries, this run produced %d", pinFile, len(want), len(got))
	}
}
