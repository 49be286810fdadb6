package exec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/workload"
)

// Static shape counters and a disassembler for lowered programs: how many
// instructions of each opcode, how many charges and registers. Test-only —
// the counters pin the lowering's shape where a timing would only drift.

var bopNames = [...]string{
	bCharge: "charge", bJmp: "jmp", bJF: "jf", bJT: "jt", bJFChk: "jfchk",
	bBoolChk: "boolchk", bMove: "move", bErr: "err", bRet: "ret", bStop: "stop",
	bExitS: "exit", bCycleS: "cycle", bLoadS: "loads", bStoreS: "stores",
	bLoadN: "loadn", bStoreN: "storen", bCellN: "celln", bJArr: "jarr",
	bSetConst: "setconst", bJCell: "jcell", bDeclS: "decls", bDeclA: "decla",
	bCall: "call", bMPI: "mpi", bPrint: "print", bNegI: "negi", bNeg: "neg", bNot: "not",
	bNotChk: "notchk", bAddI: "addi", bSubI: "subi", bMulI: "muli",
	bDivI: "divi", bPowI: "powi", bModI: "modi", bMinI: "mini", bMaxI: "maxi",
	bEqI: "eqi", bNeI: "nei", bLtI: "lti", bLeI: "lei", bGtI: "gti", bGeI: "gei",
	bAdd: "add", bSub: "sub", bMul: "mul", bDiv: "div", bPow: "pow", bMod: "mod",
	bEq: "eq", bNe: "ne", bLt: "lt", bLe: "le", bGt: "gt", bGe: "ge",
	bLoadA: "loada", bStoreA: "storea", bLoadU1: "loadu1", bLoadU2: "loadu2",
	bLoadU3: "loadu3", bStoreU1: "storeu1", bStoreU2: "storeu2", bStoreU3: "storeu3",
	bIntr: "intr", bWtime: "wtime", bForPrep: "forprep", bForIter: "foriter",
	bForNext: "fornext",
}

func (op bop) String() string {
	if int(op) < len(bopNames) && bopNames[op] != "" {
		return bopNames[op]
	}
	return fmt.Sprintf("bop(%d)", op)
}

// bstats is the static shape of an instruction range.
type bstats struct {
	ops     map[bop]int
	total   int
	charges int
}

func (bp *bprog) statsOf(code []bins) bstats {
	s := bstats{ops: map[bop]int{}, total: len(code)}
	for _, ins := range code {
		s.ops[ins.op]++
	}
	s.charges = s.ops[bCharge]
	return s
}

// innermost returns the stats of each DO loop that contains no other,
// bForIter through bForNext inclusive.
func (bp *bprog) innermost() []bstats {
	var out []bstats
	for _, fd := range bp.fors {
		if fd.inner {
			out = append(out, bp.statsOf(bp.code[fd.headPC:fd.endPC]))
		}
	}
	return out
}

// runCounts are the per-run counters summed over the ranks: the main
// unit's innermost-loop iterations executed strip-wise and those entered on
// the scalar path, the innermost-loop iterations of subroutines (either
// way), and the strip-executed mod and / lanes by path.
type runCounts struct {
	strip, scalar, callee int64
	recur, idiv           int64
}

// runCounted is RunBytecode keeping each rank's context, to read its
// counters.
func (p *Program) runCounted(np int, m plan.Machine) (c runCounts, err error) {
	p.Bytecode()
	tab := p.chargeTab(m.Costs)
	var ranks []*rctx
	_, err = interp.RunRanks(np, m.Profile, func(b *interp.MPI) interp.RankState {
		x := &rctx{prog: p, rank: b.Rank, mpi: b, tab: tab}
		ranks = append(ranks, x)
		return x
	})
	for _, x := range ranks {
		c.strip += x.stripIters
		c.scalar += x.scalarIters
		c.callee += x.calleeIters
		c.recur += x.recurLanes
		c.idiv += x.idivLanes
	}
	return c, err
}

// disasm renders the unit's instruction stream one instruction per line.
func (bp *bprog) disasm() string {
	var sb strings.Builder
	for pc, ins := range bp.code {
		fmt.Fprintf(&sb, "%4d  %-8s", pc, ins.op)
		for _, v := range [3]int32{ins.a, ins.b, ins.c} {
			if v >= 0 {
				fmt.Fprintf(&sb, " %d", v)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func corpusProgram(t *testing.T, name string) *Program {
	t.Helper()
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		if sc.Name == name {
			p, err := CompileSource(sc.Source)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	t.Fatalf("no corpus scenario %q", name)
	return nil
}

// TestDirectInnerLoopShape pins what the lowering makes of the hottest loop
// of the sim-compute workload: the DO variables are read from their loop
// registers (no reloads), the eight constant-divisor mods do not split the
// charge vector, and the loop runs strip-wise — while the
// outer loop around it (an ALLTOALL and the checksum reduction) does not.
func TestDirectInnerLoopShape(t *testing.T) {
	bp := corpusProgram(t, "direct/nx32768/np4/K8192").Bytecode()
	loops := bp.innermost()
	if len(loops) != 1 {
		t.Fatalf("%d innermost loops, want 1\n%s", len(loops), bp.disasm())
	}
	for _, fd := range bp.fors {
		if eligible := fd.nvec > 0; eligible != fd.inner {
			t.Fatalf("loop at pc %d: inner %v, strip-wise %v\n%s", fd.headPC, fd.inner, eligible, bp.disasm())
		}
	}
	// A reduction carries a value between iterations: inner3d's fill loop
	// is strip-wise, its checksum loop is not.
	if el := corpusProgram(t, "inner3d/m32/ny16/sz8/np4/K8").StripEligible(); len(el) != 2 || !el[0] || el[1] {
		t.Fatalf("inner3d strip-wise innermost loops %v, want [true false]", el)
	}
	s := loops[0]
	if s.total > 42 || s.charges != 1 || s.ops[bLoadS] > 2 {
		t.Fatalf("inner loop: %d instructions (want <= 42), %d charges (want 1), %d scalar loads (want <= 2)\n%s",
			s.total, s.charges, s.ops[bLoadS], bp.disasm())
	}
	if s.ops[bModI] != 8 {
		t.Fatalf("inner loop has %d modi, want 8\n%s", s.ops[bModI], bp.disasm())
	}
}

// TestRegisterIsPointerFree: a register write must need no write barrier
// and an instruction must stay one 16-byte load.
func TestRegisterIsPointerFree(t *testing.T) {
	if sz := unsafe.Sizeof(reg{}); sz > 16 {
		t.Fatalf("reg is %d bytes, want <= 16", sz)
	}
	if sz := unsafe.Sizeof(bins{}); sz != 16 {
		t.Fatalf("bins is %d bytes, want 16", sz)
	}
	rt := reflect.TypeOf(reg{})
	for i := 0; i < rt.NumField(); i++ {
		switch k := rt.Field(i).Type.Kind(); k {
		case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Uint8:
		default:
			t.Fatalf("reg.%s has kind %v: registers must hold no Go pointer", rt.Field(i).Name, k)
		}
	}
}

// TestChargesMergeOnlyAcrossConstantDivisors: a mod or division by a folded
// non-zero constant cannot raise and leaves the block's charge vector whole;
// a run-time (or zero) divisor still splits it, because the error must
// surface at the walker's elapsed time.
func TestChargesMergeOnlyAcrossConstantDivisors(t *testing.T) {
	loopCharges := func(expr string) int {
		p, err := CompileSource(`
program t
  integer i, n, s
  n = 13
  do i = 1, 100
    s = ` + expr + `
  enddo
end program t
`)
		if err != nil {
			t.Fatal(err)
		}
		loops := p.Bytecode().innermost()
		if len(loops) != 1 {
			t.Fatalf("%s: %d innermost loops, want 1", expr, len(loops))
		}
		return loops[0].charges
	}
	for expr, want := range map[string]int{
		"i*2 + mod(i, 13) + i/7 + mod(i*3, 5)": 1,
		"i*2 + mod(i, n) + i*3":                2,
		"i*2 + i/n + i*3":                      2,
		"i*2 + mod(i, 0) + i*3":                2,
		"i*2 + mod(i, 13.0) + i/2.5":           1,
	} {
		if got := loopCharges(expr); got != want {
			t.Errorf("%s: %d charges in the loop body, want %d", expr, got, want)
		}
	}
}

// TestStripCoverageCorpus is the gate against de-vectorisation: over the
// corpus and its default-K and K/4 variants, at least nine in ten of the
// main unit's innermost-loop iterations must run strip-wise. (What stays
// scalar there: reductions, loops around a CALL or an MPI statement, and
// loops entered with fewer than stripMin trips — the 2-trip copy loops of
// the finest tilings, which put single programs as low as 0.59.) Innermost
// loops inside subroutines are counted apart and only reported: they work on
// dummy arrays, whose kind and aliasing the lowering does not know, so they
// run scalar. The ratio is a property of the full corpus (0.91); the -short
// prefix reads 0.87 and is only required to run strip-wise at all.
//
// It is also the gate against losing the affine division path: of the
// strip-executed mod and / lanes, at least nine in ten must run by the
// remainder recurrence rather than one division per lane (full corpus
// 0.948; the -short prefix reads 0.92 and need only take the path at all).
func TestStripCoverageCorpus(t *testing.T) {
	scenarios := workload.GenerateScenarios(workload.GenOptions{})
	if testing.Short() {
		scenarios = scenarios[:12]
	}
	m := plan.MPICHGM2005()
	var sum runCounts
	for _, sc := range scenarios {
		prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			t.Fatalf("%s: analyze: %v", sc.Name, err)
		}
		srcs := []string{sc.Source}
		for _, k := range []int64{sc.K, max(sc.K/4, 1)} {
			src, _, err := core.Apply(prog, plan.Uniform(plan.Decision{K: k}))
			if err != nil {
				t.Fatalf("%s: apply K=%d: %v", sc.Name, k, err)
			}
			srcs = append(srcs, src)
		}
		for vi, src := range srcs {
			p, err := CompileSource(src)
			if err != nil {
				t.Fatalf("%s/variant%d: %v", sc.Name, vi, err)
			}
			c, err := p.runCounted(sc.NP, m)
			if err != nil {
				t.Fatalf("%s/variant%d: %v", sc.Name, vi, err)
			}
			sum.strip += c.strip
			sum.scalar += c.scalar
			sum.callee += c.callee
			sum.recur += c.recur
			sum.idiv += c.idiv
		}
	}
	strip, scalar := sum.strip, sum.scalar
	share := float64(strip) / float64(strip+scalar)
	t.Logf("%d of %d main-unit innermost-loop iterations ran strip-wise (%.4f); with the %d in subroutines: %.4f",
		strip, strip+scalar, share, sum.callee, float64(strip)/float64(strip+scalar+sum.callee))
	divs := sum.recur + sum.idiv
	recur := float64(sum.recur) / float64(max(divs, 1))
	t.Logf("%d of %d strip-executed mod and / lanes ran by the remainder recurrence (%.4f)", sum.recur, divs, recur)
	if strip == 0 {
		t.Fatal("no innermost-loop iteration ran strip-wise")
	}
	if sum.recur == 0 {
		t.Fatal("no mod or / lane ran by the remainder recurrence")
	}
	if !testing.Short() && share < 0.90 {
		t.Fatalf("strip-wise share of main-unit innermost-loop iterations is %.4f, want >= 0.90", share)
	}
	if !testing.Short() && recur < 0.90 {
		t.Fatalf("recurrence share of strip-executed mod and / lanes is %.4f, want >= 0.90", recur)
	}
}
