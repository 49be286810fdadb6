package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ftn"
	"repro/internal/workload"
)

// slabShape is the Fig. 3(a) copy-loop kernel with every place the §3.4
// check reads left open: the As planes, both loops' bounds, the copy body's
// scalar assignments in order, the three As subscripts and the At index.
type slabShape struct {
	n          int      // As is n×n×planes, At has n*n elements, np = n
	planes     string   // As's last extent
	outer      string   // "lo, hi" of ℓ (over iy)
	copyBounds string   // "lo, hi" of ℓcp (over ix)
	body       []string // ℓcp's scalar assignments
	subs       [3]string
	at         string
}

func canonicalSlab() slabShape {
	return slabShape{
		n: 4, planes: "n", outer: "1, n", copyBounds: "1, n*n",
		body: []string{"tx = mod(ix - 1, n) + 1", "ty = (ix - 1)/n + 1"},
		subs: [3]string{"tx", "ty", "iy"}, at: "ix",
	}
}

func (s slabShape) source() string {
	perRank := s.n * s.n * s.n
	if s.planes != "n" {
		perRank = s.n * s.n * (s.n + 1)
	}
	perRank /= s.n
	return fmt.Sprintf(`
program slab
  implicit none
  include 'mpif.h'
  integer, parameter :: n = %d
  integer, parameter :: np = %d
  integer, parameter :: k0 = 0
  integer as(1:n, 1:n, 1:%s)
  integer ar(1:n, 1:n, 1:%s)
  integer at(1:%d)
  integer iy, ix, tx, ty, tz, ierr

  do iy = %s
    call fill(iy, at)
    do ix = %s
      %s
      as(%s, %s, %s) = at(%s)
    enddo
  enddo
  call mpi_alltoall(as, %d, mpi_integer, ar, %d, mpi_integer, mpi_comm_world, ierr)
end program slab

subroutine fill(iy, at)
  integer iy
  integer at(*)
  at(1) = iy
end subroutine fill
`, s.n, s.n, s.planes, s.planes, s.n*s.n, s.outer, s.copyBounds,
		strings.Join(s.body, "\n      "), s.subs[0], s.subs[1], s.subs[2], s.at, perRank, perRank)
}

// slabBytes reads choices from fuzz input, one byte each; exhausted input
// reads 0, the canonical choice.
type slabBytes []byte

func (b *slabBytes) pick(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// expr is a random expression over the loop variables, n, the body scalars
// and small literals under + - * / mod, depth at most d.
func (b *slabBytes) expr(d int) string {
	atoms := []string{"ix", "iy", "n", "1", "2", "3", "tx", "ty", "tz"}
	if d == 0 {
		return atoms[b.pick(len(atoms))]
	}
	switch op := b.pick(6); op {
	case 0, 1:
		return b.expr(d-1) + []string{" + ", " - "}[op] + b.expr(d-1)
	case 2, 3:
		return "(" + b.expr(d-1) + ")" + []string{"*", "/"}[op-2] + "(" + b.expr(d-1) + ")"
	case 4:
		return "mod(" + b.expr(d-1) + ", " + b.expr(d-1) + ")"
	}
	return atoms[b.pick(len(atoms))]
}

// choose picks one of opts, the first (canonical) one three times in four;
// a "?" in the one picked becomes a random expression.
func (b *slabBytes) choose(opts ...string) string {
	i := b.pick(4 * len(opts))
	if i >= len(opts) {
		i = 0
	}
	o := opts[i]
	if strings.Contains(o, "?") {
		o = strings.Replace(o, "?", b.expr(2), 1)
	}
	return o
}

// spike is 1 at v = k and 0 for every other v in 1..: a one-element defect.
func spike(v string, k int) string { return fmt.Sprintf("(%s/%d)*(%d/%s)", v, k, k, v) }

// slabFromBytes decodes one slabShape. Each field's choice 0 is canonical;
// the others vary n (2–4), add a plane, vary both loops' bounds (zero-trip,
// iy-dependent, shifted, reading a scalar the previous slab left), swap the
// scalars, add a carried scalar (read before the body assigns it, or ℓ's
// variable reassigned), an iy-only scalar, random expressions, and
// one-element defects in ix-and-iy and iy-only codes.
func slabFromBytes(data []byte) slabShape {
	b := slabBytes(data)
	s := canonicalSlab()
	s.n = []int{4, 2, 3}[b.pick(3)]
	s.planes = b.choose("n", "n + 1")
	s.outer = b.choose("1, n", "10, 1", "3, 1", "1, n - 1", "2, n + 1", "0, n - 1")
	k := 1 + b.pick(s.n)     // the outer value a defect hits
	j := 1 + b.pick(s.n*s.n) // the copy value a defect hits
	s.copyBounds = b.choose("1, n*n", "iy, iy + n*n - 1", "1, n*n - iy/n", "0, n*n - 1", "1, 0", "5, 1",
		"1 + 0*iy, n*n", "2 - iy/iy, n*n + iy - iy", "1 + k0*"+spike("iy", k)+", n*n + k0*"+spike("iy", k))
	tx := b.choose(s.body[0], "tx = mod(ix - 1, n) + 1 + 0*iy", "tx = (ix - 1)/n + 1",
		"tx = mod(ix - 1 + "+spike("iy", k)+"*"+spike("ix", j)+", n) + 1", "tx = ?")
	ty := b.choose(s.body[1], "ty = (ix - 1)/n + 1 + 0*tx", "ty = mod(ix - 1, n) + 1", "ty = ?")
	s.body = []string{tx, ty}
	if b.pick(3) == 1 {
		s.body = []string{ty, tx}
	}
	extra := b.choose("", "iy = iy + 0", "iy = iy + 1", "tz = tz + 0", "tz = iy - "+spike("iy", k),
		"tz = iy + "+spike("iy", k), "tz = ?", "k0 = ix/(n*n)", "k0 = ?",
		"tz = iy\n      iy = iy + "+spike("iy", k))
	if extra != "" {
		at := b.pick(len(s.body) + 1)
		s.body = append(s.body[:at], append([]string{extra}, s.body[at:]...)...)
	}
	s.subs[0] = b.choose("tx", "ty", "?")
	s.subs[1] = b.choose("ty", "tx", "?")
	s.subs[2] = b.choose("iy", "tz", "iy - "+spike("iy", k), "iy + "+spike("iy", k), "n + 1 - iy", "iy*1", "?")
	s.at = b.choose("ix", "ix + 0*iy", "n*n + 1 - ix", "ix - "+spike("ix", j), "?")
	return s
}

// slabProof is one slab-mapping proof as the check made it.
type slabProof struct {
	elements int64
	err      error
	count    int64
}

// proveBoth runs FindOpportunities on src and holds each slab-mapping proof
// it makes to referenceSlabMapping: the same verdict, the same message, the
// same Count. It returns the proofs; none when src does not parse.
func proveBoth(t testing.TB, src string) []slabProof {
	t.Helper()
	f, err := ftn.Parse(src)
	if err != nil {
		return nil
	}
	var proofs []slabProof
	prev := observeSlab
	defer func() { observeSlab = prev }()
	observeSlab = func(op *Opportunity, cl *CopyLoop, w *ftn.AssignStmt, rhs *ftn.Ref, elements int64, err error) {
		ref := *cl
		refErr := referenceSlabMapping(op, &ref, w, rhs)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || err == nil && cl.Count != ref.Count {
			t.Errorf("slab check: %v (Count %d), reference: %v (Count %d)\n%s", err, cl.Count, refErr, ref.Count, src)
		}
		proofs = append(proofs, slabProof{elements, err, cl.Count})
	}
	FindOpportunities(f, Options{})
	return proofs
}

// TestSlabMappingMatchesReference holds the slab check to the exhaustive
// enumeration on random copy loops of the Fig. 3(a) shape, and requires the
// draw to exercise it: accepted mappings that took one element per later
// slab, and rejections at a later slab.
func TestSlabMappingMatchesReference(t *testing.T) {
	programs := 20000
	if testing.Short() {
		programs = 4000
	}
	r := rand.New(rand.NewSource(35))
	proved, accepted, skipped, laterSlab := 0, 0, 0, 0
	for i := 0; i < programs; i++ {
		data := make([]byte, 24)
		r.Read(data)
		s := slabFromBytes(data)
		for _, p := range proveBoth(t, s.source()) {
			proved++
			switch {
			case p.err == nil:
				accepted++
				if p.count > 0 && p.elements < p.count*int64(s.n) {
					skipped++
				}
			case strings.Contains(p.err.Error(), "iy=") && !strings.Contains(p.err.Error(), "iy="+strings.Split(s.outer, ",")[0]+","):
				laterSlab++ // a mapping defect past the first slab
			}
		}
	}
	t.Logf("%d programs, %d proofs: %d accepted (%d checked at one element per later slab), %d rejected, %d of them for a mapping defect at a later slab",
		programs, proved, accepted, skipped, proved-accepted, laterSlab)
	if proved < programs*9/10 || accepted < programs/100 || skipped < accepted/4 || laterSlab < programs/100 {
		t.Errorf("the draw does not exercise the check")
	}
}

// TestSlabMappingCases pins single shapes in both implementations, and the
// elements the check evaluates: carried scalars and iy-dependent copy bounds
// take the full walk; bounds that read an ix-only scalar see what the
// previous slab's last element left; one-element defects in an iy-only
// subscript are found at one element of a later slab (the last two are
// TestRejectSlabMapping's in internal/transform).
func TestSlabMappingCases(t *testing.T) {
	with := func(edit func(*slabShape)) string {
		s := canonicalSlab()
		edit(&s)
		return s.source()
	}
	for _, c := range []struct {
		name, src, want string
		elements        int64
	}{
		{"canonical", with(func(*slabShape) {}), "", 16 + 3},
		{"carried scalar", with(func(s *slabShape) { s.body = append(s.body, "iy = iy + 0") }), "", 64},
		{"carried scalar breaks the mapping", with(func(s *slabShape) { s.body = append([]string{"iy = iy + ix/16"}, s.body...) }),
			"copy mapping is not a whole-slab mapping: at iy=1, ix=16 the element lands at offset 31, want 15", 16},
		{"carried scalar breaks the mapping at a later slab", with(func(s *slabShape) {
			s.body = append([]string{"tz = iy", "iy = iy + (iy/3)*(3/iy)"}, s.body...)
			s.subs[2] = "tz"
		}), "copy mapping is not a whole-slab mapping: at iy=3, ix=2 the element lands at offset 49, want 33", 16 + 16 + 2},
		{"bounds read an ix-only scalar the last element left", with(func(s *slabShape) {
			s.copyBounds = "1 + k0*(iy/3)*(3/iy), n*n + k0*(iy/3)*(3/iy)"
			s.body = append([]string{"k0 = ix/(n*n)"}, s.body...)
		}), "As subscript 2 out of bounds (5 not in 1:4)", 16 + 1 + 16},
		{"iy-dependent copy bounds", with(func(s *slabShape) {
			s.copyBounds, s.at = "iy, iy + n*n - 1", "ix - iy + 1"
			s.body = []string{"tx = mod(ix - iy, n) + 1", "ty = (ix - iy)/n + 1"}
		}), "", 64},
		{"iy-only defect at a later slab", with(func(s *slabShape) { s.subs[2] = "iy - (iy/3)*(3/iy)" }),
			"copy mapping is not a whole-slab mapping: at iy=3, ix=1 the element lands at offset 16, want 32", 16 + 2},
		{"iy-only subscript out of bounds at the last slab", with(func(s *slabShape) { s.subs[2] = "iy + (iy/4)*(4/iy)" }),
			"As subscript 3 out of bounds (5 not in 1:4)", 16 + 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			proofs := proveBoth(t, c.src)
			if len(proofs) != 1 {
				t.Fatalf("%d proofs, want 1", len(proofs))
			}
			if got := proofs[0].err; c.want == "" && got != nil || c.want != "" && (got == nil || got.(*RejectionError).Reason != c.want) {
				t.Errorf("got %v, want %q", got, c.want)
			}
			if proofs[0].elements != c.elements {
				t.Errorf("%d elements evaluated, want %d", proofs[0].elements, c.elements)
			}
		})
	}
}

// FuzzSlabMapping holds the slab check to the exhaustive enumeration on
// copy loops decoded from fuzz input (slabFromBytes).
func FuzzSlabMapping(f *testing.F) {
	f.Add([]byte{}) // the canonical shape; the committed seeds are in testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		proveBoth(t, slabFromBytes(data).source())
	})
}

// TestSlabCheckWork pins the check's cost on the corpus's indirect sites:
// an n×n×n As is proved in n² + n - 1 element evaluations (the first slab,
// then one element of each later slab), not n³.
func TestSlabCheckWork(t *testing.T) {
	var total, walk int64
	sites := 0
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		if sc.Family != "indirect" {
			continue
		}
		proofs := proveBoth(t, sc.Source)
		if len(proofs) != 1 || proofs[0].err != nil {
			t.Fatalf("%s: proofs %+v, want one accepted", sc.Name, proofs)
		}
		p := proofs[0]
		n := int64(math.Round(math.Sqrt(float64(p.count))))
		if n*n != p.count || p.elements != n*n+n-1 {
			t.Errorf("%s: Count %d, %d elements evaluated; want n*n + n - 1 = %d", sc.Name, p.count, p.elements, n*n+n-1)
		}
		sites++
		total += p.elements
		walk += n * n * n
	}
	t.Logf("%d indirect sites: %d elements evaluated, %d in the exhaustive walk", sites, total, walk)
	if sites != 5 {
		t.Errorf("%d indirect sites in the corpus, want 5", sites)
	}
}
