package analysis

import (
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ftn"
)

// walkEval is the reference semantics of the evaluator: a tree walk over the
// source expression under a name -> value map, written without the slot
// machinery (and with ** in big integers) so the two share nothing.
func walkEval(e ftn.Expr, env map[string]int64) (int64, bool) {
	switch e := e.(type) {
	case *ftn.IntLit:
		return e.Value, true
	case *ftn.Ident:
		v, ok := env[e.Name]
		return v, ok
	case *ftn.Unary:
		x, ok := walkEval(e.X, env)
		switch {
		case !ok:
		case e.Op == "-":
			return -x, true
		case e.Op == "+":
			return x, true
		}
		return 0, false
	case *ftn.Binary:
		x, okx := walkEval(e.X, env)
		y, oky := walkEval(e.Y, env)
		if !okx || !oky {
			return 0, false
		}
		switch e.Op {
		case "+":
			return x + y, true
		case "-":
			return x - y, true
		case "*":
			return x * y, true
		case "/":
			if y != 0 {
				return x / y, true
			}
		case "**":
			switch {
			case y < 0:
				return 0, false
			case x >= -1 && x <= 1:
				if y > 2 {
					y = 2 + y%2 // only y's parity matters from here on
				}
			case y > 64:
				return 0, false // |x| ≥ 2: beyond 2⁶⁴ in magnitude
			}
			p := new(big.Int).Exp(big.NewInt(x), big.NewInt(y), nil)
			return p.Int64(), p.IsInt64()
		}
		return 0, false
	case *ftn.Ref:
		args := make([]int64, len(e.Args))
		for i, a := range e.Args {
			v, ok := walkEval(a, env)
			if !ok {
				return 0, false
			}
			args[i] = v
		}
		switch {
		case e.Name == "mod" && len(args) == 2 && args[1] != 0:
			return args[0] % args[1], true
		case e.Name == "abs" && len(args) == 1:
			if args[0] < 0 {
				return -args[0], true
			}
			return args[0], true
		case (e.Name == "min" || e.Name == "max") && len(args) >= 1:
			m := args[0]
			for _, v := range args[1:] {
				if (e.Name == "min" && v < m) || (e.Name == "max" && v > m) {
					m = v
				}
			}
			return m, true
		}
	}
	return 0, false
}

// randExpr draws an expression over names, biased toward the shapes that
// decide ok: undefined identifiers, zero divisors, odd exponents, intrinsic
// arities (including the wrong ones) and operators outside the subset.
func randExpr(rng *rand.Rand, names []string, depth int) ftn.Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(3) {
		case 0:
			return ftn.Id(names[rng.Intn(len(names))])
		case 1:
			return ftn.Int(int64(rng.Intn(7)) - 2)
		}
		lits := []int64{0, 1, -1, 2, 3, 62, 63, 64, 1 << 31, 1 << 62, 3000000000, -(1 << 63)}
		return ftn.Int(lits[rng.Intn(len(lits))])
	}
	sub := func() ftn.Expr { return randExpr(rng, names, depth-1) }
	switch rng.Intn(12) {
	case 0:
		return &ftn.Unary{Op: []string{"-", "+", ".not."}[rng.Intn(3)], X: sub()}
	case 1, 2:
		return ftn.Bin("**", sub(), sub())
	case 3:
		return ftn.Bin([]string{"/", "==", "<"}[rng.Intn(3)], sub(), sub())
	case 4, 5:
		name := []string{"mod", "min", "max", "abs", "f"}[rng.Intn(5)]
		args := make([]ftn.Expr, rng.Intn(4))
		for i := range args {
			args[i] = sub()
		}
		return ftn.Call(name, args...)
	case 6:
		return &ftn.RealLit{Text: "1.5", Value: 1.5}
	}
	return ftn.Bin([]string{"+", "-", "*"}[rng.Intn(3)], sub(), sub())
}

// TestEvaluatorMatchesTreeWalk: on seeded random expressions the
// slot-resolved evaluator and EvalInt agree with the tree-walking semantics,
// value and ok — also while names are defined and undefined between runs of
// the same resolved code, which is how the slab check uses it (body scalars
// become defined mid-loop; the copy-loop variable is undefined again after
// its loop).
func TestEvaluatorMatchesTreeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	names := []string{"n", "m", "ix", "iy", "tx", "undefined"}
	oks := 0
	for trial := 0; trial < 4000; trial++ {
		consts := map[string]int64{}
		for _, n := range names[:2] {
			if rng.Intn(4) > 0 {
				consts[n] = int64(rng.Intn(9)) - 2
			}
		}
		var sc scope
		exprs := make([]ftn.Expr, 1+rng.Intn(3))
		codes := make([]code, len(exprs))
		for i := range exprs {
			exprs[i] = randExpr(rng, names, 1+rng.Intn(4))
			codes[i] = sc.resolve(exprs[i])
		}
		for _, n := range names[2:5] {
			sc.slotOf(n) // the loop variables and scalar have slots whether or not an expression reads them
		}
		for _, e := range exprs {
			want, wantOK := walkEval(e, consts)
			if got, ok := EvalInt(e, consts); ok != wantOK || (ok && got != want) {
				t.Fatalf("trial %d: EvalInt(%s) = %d,%v; tree walk %d,%v", trial, ftn.ExprString(e), got, ok, want, wantOK)
			}
		}
		en := sc.newEnv(consts)
		ref := map[string]int64{}
		for k, v := range consts {
			ref[k] = v
		}
		for step := 0; step < 6; step++ {
			name := names[2+rng.Intn(3)]
			if rng.Intn(3) == 0 {
				delete(ref, name)
				en.unset(sc.slots[name])
			} else {
				v := int64(rng.Intn(70)) - 3
				ref[name] = v
				en.set(sc.slots[name], v)
			}
			for i, e := range exprs {
				want, wantOK := walkEval(e, ref)
				got, ok := en.run(codes[i])
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("trial %d step %d: run(%s) under %v = %d,%v; tree walk %d,%v",
						trial, step, ftn.ExprString(e), ref, got, ok, want, wantOK)
				}
				if ok {
					oks++
				}
			}
		}
	}
	if oks < 4000 {
		t.Errorf("only %d evaluable samples: the generator no longer exercises the ok path", oks)
	}
}

// TestHugeExponentDoesNotHang: a one-line constant used to cost the analysis
// one multiplication per unit of its exponent — 11.9 s for 2**3000000000,
// forever for 2**(2**62) — on planserver's request path. The constant is
// merely unknown now, and the site below it is analysed as before.
func TestHugeExponentDoesNotHang(t *testing.T) {
	src := `
program p
  implicit none
  integer, parameter :: big = 2**3000000000
  integer, parameter :: bigger = 2**(2**62)
  integer, parameter :: fine = 2**5
  integer, parameter :: ny = 16
  integer, parameter :: sz = 8
  integer as(1:ny, 1:sz)
  integer ar(1:ny, 1:sz)
  integer scratch(1:2**3000000000)
  integer iy, inode, ierr

  do iy = 1, ny
    do inode = 1, sz
      as(iy, inode) = iy*100 + inode
    enddo
  enddo
  do iy = 1, 2**(2**62)
    scratch(iy) = 0
  enddo
  call mpi_alltoall(as, ny*sz/4, mpi_integer, ar, ny*sz/4, mpi_integer, mpi_comm_world, ierr)
end program p
`
	start := time.Now()
	ops, errs := findOps(t, src, Options{})
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("analysis took %v", d)
	}
	if len(errs) != 0 || len(ops) != 1 {
		t.Fatalf("ops=%d errs=%v, want the one site analysed", len(ops), errs)
	}
	op := ops[0]
	if op.NodeCase != NodeLoopInner || len(op.SafeRefs) != 1 {
		t.Errorf("site facts changed: node case %v, %d safe refs", op.NodeCase, len(op.SafeRefs))
	}
	if _, ok := op.Consts["big"]; ok {
		t.Errorf("big = %d: an overflowing power must be unknown, not wrapped", op.Consts["big"])
	}
	if _, ok := op.Consts["bigger"]; ok {
		t.Errorf("bigger = %d, want unknown", op.Consts["bigger"])
	}
	if op.Consts["fine"] != 32 || op.Consts["ny"] != 16 {
		t.Errorf("ordinary constants lost: %v", op.Consts)
	}
}
