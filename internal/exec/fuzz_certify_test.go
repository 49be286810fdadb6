package exec_test

import (
	"fmt"
	"strings"
	"testing"
)

// certifyCase is one program of FuzzCertify's two-rank template, decoded
// from the fuzz input: up to three request pairs, pair j posting an irecv
// into b and an isend from a over one segment with tag j, then for each pair
// in turn an optional access around its wait.
type certifyCase struct {
	n    int64 // elements of a, b and c
	reqs []certifyReq
}

type certifyReq struct {
	lo, cnt int64 // the segment of a and b, 1-based
	// The access: on array a or b; a load, a store, or both (through a
	// callee's dummy view); of elements p..q (a loop when q > p); before or
	// after the pair's waits.
	array      byte
	load, stor bool
	callee     bool
	p, q       int64
	before     bool
}

// decodeCertify reads a case from the fuzz input; missing bytes read 0.
func decodeCertify(data []byte) certifyCase {
	at := 0
	next := func() int64 {
		if at >= len(data) {
			return 0
		}
		at++
		return int64(data[at-1])
	}
	nreq := 1 + next()%3
	c := certifyCase{n: 8 * nreq}
	for j := int64(0); j < nreq; j++ {
		r := certifyReq{lo: 8*j + 1 + next()%4}
		r.cnt = min(1+next()%8, c.n-r.lo+1)
		kind, form := next()%5, next()%3
		r.p = 1 + next()%c.n
		r.q = r.p
		if form == 1 {
			r.q = min(r.p+next()%8, c.n)
		} else {
			next()
		}
		r.before = next()%2 == 0
		if kind > 0 {
			r.array = "ab"[(kind-1)/2]
			r.load, r.stor = kind%2 == 1, kind%2 == 0
			if form == 2 {
				r.callee, r.load, r.stor = true, true, true
			}
		}
		c.reqs = append(c.reqs, r)
	}
	return c
}

// source renders the case as a two-rank program.
func (c certifyCase) source() string {
	var b strings.Builder
	fmt.Fprintf(&b, `
program fz
  include 'mpif.h'
  integer ierr, me, peer, i, s
  integer a(1:%d), b(1:%d), c(1:%d)
  integer rr(1:3), rs(1:3)
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  peer = 1 - me
  s = 0
  do i = 1, %d
    a(i) = i + 100*me
    b(i) = -i
    c(i) = 0
  enddo
`, c.n, c.n, c.n, c.n)
	for j, r := range c.reqs {
		fmt.Fprintf(&b, "  call mpi_irecv(b(%d), %d, mpi_integer, peer, %d, mpi_comm_world, rr(%d), ierr)\n", r.lo, r.cnt, j, j+1)
		fmt.Fprintf(&b, "  call mpi_isend(a(%d), %d, mpi_integer, peer, %d, mpi_comm_world, rs(%d), ierr)\n", r.lo, r.cnt, j, j+1)
	}
	for j, r := range c.reqs {
		if r.before {
			b.WriteString(r.access())
		}
		fmt.Fprintf(&b, "  call mpi_wait(rr(%d), mpi_status_ignore, ierr)\n", j+1)
		fmt.Fprintf(&b, "  call mpi_wait(rs(%d), mpi_status_ignore, ierr)\n", j+1)
		if !r.before {
			b.WriteString(r.access())
		}
	}
	b.WriteString(`  print *, s
  call mpi_finalize(ierr)
end program fz

subroutine poke(x, n)
  integer n
  integer x(n)
  x(1) = x(1) + 1
end subroutine poke
`)
	return b.String()
}

// access renders the request's access statement(s).
func (r certifyReq) access() string {
	x := string(r.array)
	switch {
	case r.array == 0:
		return ""
	case r.callee:
		return fmt.Sprintf("  call poke(%s(%d), 1)\n", x, r.p)
	case r.q > r.p && r.load:
		return fmt.Sprintf("  do i = %d, %d\n    c(i) = %s(i)\n  enddo\n", r.p, r.q, x)
	case r.q > r.p:
		return fmt.Sprintf("  do i = %d, %d\n    %s(i) = i*3 + me\n  enddo\n", r.p, r.q, x)
	case r.load:
		return fmt.Sprintf("  s = s + %s(%d)\n", x, r.p)
	}
	return fmt.Sprintf("  %s(%d) = s + 7\n", x, r.p)
}

// hazard says whether the program touches an in-flight buffer: two irecv
// segments overlap (all requests are open together), or an access stores to
// an open isend's segment of a, or touches an open irecv's segment of b.
func (c certifyCase) hazard() bool {
	overlap := func(lo1, hi1, lo2, hi2 int64) bool { return lo1 <= hi2 && lo2 <= hi1 }
	for j, r := range c.reqs {
		for _, o := range c.reqs[:j] {
			if overlap(r.lo, r.lo+r.cnt-1, o.lo, o.lo+o.cnt-1) {
				return true
			}
		}
	}
	for j, r := range c.reqs {
		if r.array == 0 || r.array == 'a' && !r.stor {
			continue
		}
		for k, o := range c.reqs {
			open := k > j || k == j && r.before
			if open && overlap(r.p, r.q, o.lo, o.lo+o.cnt-1) {
				return true
			}
		}
	}
	return false
}

// FuzzCertify: a recording certifies exactly when the program touches no
// buffer of an open request, under both engines and whatever the machine;
// and when it certifies, executions under the built-in machines and the
// rendezvous-forced one compute the recording's data, and replay to their
// own Stats. The slice's recording is the program's, certifying alike. Seeds: testdata/fuzz/FuzzCertify (the adversarial cases).
func FuzzCertify(f *testing.F) {
	f.Add([]byte{0, 0, 7, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeCertify(data)
		src := c.source()
		want := !c.hazard()
		for _, m := range []int{0, len(certifyMachines()) - 1} {
			rm := certifyMachines()[m]
			rec, skel := recordBoth(t, "fuzz case", src, 2, rm)
			if skel.Certifies() != want {
				t.Fatalf("under %s: certifies %v (%v), want %v; program:\n%s", rm.Name, skel.Certifies(), skel.InFlight(), want, src)
			}
			if m == 0 && want {
				requireCertifiedRecording(t, "fuzz case", src, 2, rm, rec, skel)
			}
		}
		for _, m := range certifyMachines() {
			requireSliceIsRecording(t, "fuzz case", src, 2, m)
		}
	})
}
