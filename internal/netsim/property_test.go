package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickTransferInvariants drives random traffic through the cluster
// model and checks the invariants every delivery must satisfy:
//   - causality: delivered no earlier than post + latency + wire time,
//   - monotonicity per (src,dst) pair: FIFO delivery order,
//   - conservation: every message is delivered exactly once.
func TestQuickTransferInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	check := func() bool {
		np := 2 + r.Intn(6)
		prof := MPICHGM()
		if r.Intn(2) == 0 {
			prof = MPICHTCP()
		}
		cl := NewCluster(np, prof)
		type rec struct {
			src, dst  int
			bytes     int64
			posted    Time
			delivered Time
		}
		n := 1 + r.Intn(40)
		recs := make([]*rec, n)
		delivered := 0
		for i := 0; i < n; i++ {
			src := r.Intn(np)
			dst := r.Intn(np)
			for dst == src {
				dst = r.Intn(np)
			}
			rc := &rec{src: src, dst: dst, bytes: int64(1 + r.Intn(100000)), posted: Time(r.Intn(1000)) * Microsecond}
			recs[i] = rc
			cl.Transfer(src, dst, rc.bytes, rc.posted, func(at Time) {
				rc.delivered = at
				delivered++
			})
		}
		if _, err := cl.Eng.Run(); err != nil {
			t.Logf("run: %v", err)
			return false
		}
		if delivered != n {
			t.Logf("conservation violated: %d of %d delivered", delivered, n)
			return false
		}
		for _, rc := range recs {
			minTime := rc.posted + prof.Latency + Time(float64(rc.bytes)*prof.GapNsPerByte)
			if rc.delivered < minTime {
				t.Logf("causality violated: delivered %v < min %v", rc.delivered, minTime)
				return false
			}
		}
		// FIFO per ordered pair: posting order equals delivery order when
		// posted at increasing times.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a, b := recs[i], recs[j]
				if a.src == b.src && a.dst == b.dst && a.posted < b.posted && a.delivered > b.delivered {
					t.Logf("FIFO violated for pair (%d,%d)", a.src, a.dst)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEngineClockMonotone: under random compute/yield interleavings,
// every process's clock is non-decreasing and the engine terminates.
func TestQuickEngineClockMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	check := func() bool {
		e := NewEngine()
		nProcs := 1 + r.Intn(5)
		violated := false
		for i := 0; i < nProcs; i++ {
			steps := make([]Time, 1+r.Intn(8))
			for k := range steps {
				steps[k] = Time(r.Intn(500)) * Microsecond
			}
			e.Spawn(func(p *Proc) {
				last := p.Now()
				for _, d := range steps {
					p.Advance(d)
					p.Yield()
					if p.Now() < last {
						violated = true
					}
					last = p.Now()
				}
			})
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		return !violated
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestProfilesTable sanity-checks the two built-in profiles.
func TestProfilesTable(t *testing.T) {
	tcp, gm := MPICHTCP(), MPICHGM()
	if tcp.Offload {
		t.Error("mpich-tcp must not be offload-capable")
	}
	if !gm.Offload {
		t.Error("mpich-gm must be offload-capable")
	}
	if gm.CopyNsPerByte != 0 {
		t.Error("mpich-gm should be zero-copy")
	}
	if tcp.GapNsPerByte <= gm.GapNsPerByte {
		t.Error("the TCP-era wire should be slower than Myrinet")
	}
	if tcp.String() != "mpich-tcp" {
		t.Errorf("profile String = %q", tcp.String())
	}
}

// TestTimeFormatting covers the engineering-unit renderer.
func TestTimeFormatting(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{Microsecond + Microsecond/2, "1.500µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
	if s := (2 * Second).Seconds(); s != 2.0 {
		t.Errorf("Seconds = %f", s)
	}
}

// TestQuickEventOrderTotal: whatever order events are scheduled in — many
// at one time, some from inside other events, some by running procs at or
// after their own clock (into their lanes, or onto the heap when before the
// lane's tail), some completing a completion a proc waits on — they fire by
// (time, scheduling order), the total order every run's determinism rests
// on.
func TestQuickEventOrderTotal(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var laned, fellBack int
	check := func() bool {
		e := NewEngine()
		type key struct {
			at  Time
			seq int
		}
		var fired []key
		seq := 0
		ok := true
		var schedule func(at Time, depth int, then func(now Time))
		schedule = func(at Time, depth int, then func(now Time)) {
			if p := e.running; p != nil {
				if p.lane.accepts(at) {
					laned++
				} else {
					fellBack++
				}
			}
			seq++
			k := key{at, seq}
			e.At(at, func(now Time) {
				ok = ok && now == k.at
				fired = append(fired, k)
				if then != nil {
					then(now)
				}
				if depth > 0 && r.Intn(2) == 0 {
					schedule(now+Time(r.Intn(3)), depth-1, nil)
				}
			})
		}
		for n := r.Intn(100); n > 0; n-- {
			schedule(Time(r.Intn(40)), 2, nil)
		}
		for n := r.Intn(5); n > 0; n-- {
			e.Spawn(func(p *Proc) {
				for step := r.Intn(30); step > 0; step-- {
					switch r.Intn(5) {
					case 0:
						p.Advance(Time(r.Intn(4)))
					case 1:
						schedule(p.Now(), 1, nil)
					case 2:
						// Before the lane's tail when an earlier one went further.
						schedule(p.Now()+Time(r.Intn(5)), 1, nil)
					case 3:
						p.Yield()
					case 4:
						c := &Completion{}
						schedule(p.Now()+Time(r.Intn(5)), 1, c.Complete)
						p.Wait(c, "wake-up")
					}
				}
			})
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
				return false
			}
		}
		return ok && len(fired) == seq
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if laned == 0 || fellBack == 0 {
		t.Fatalf("procs scheduled %d events into their lanes and %d onto the heap; want both paths", laned, fellBack)
	}
}
