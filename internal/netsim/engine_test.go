package netsim

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestEngineEventsInOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func(Time) { got = append(got, 3) })
	e.At(10, func(Time) { got = append(got, 1) })
	e.At(20, func(Time) { got = append(got, 2) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
}

func TestEngineTieBreakBySeq(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func(Time) { got = append(got, 1) })
	e.At(10, func(Time) { got = append(got, 2) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("tie order = %v", got)
	}
}

func TestProcAdvanceAndCompletion(t *testing.T) {
	e := NewEngine()
	c := e.NewCompletion()
	var wokeAt Time
	e.Spawn(func(p *Proc) {
		p.Advance(5 * Microsecond)
		p.Wait(c, "test")
		wokeAt = p.Now()
	})
	e.At(20*Microsecond, func(now Time) { c.Complete(now) })
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if wokeAt != 20*Microsecond {
		t.Errorf("woke at %v, want 20µs", wokeAt)
	}
	if end != 20*Microsecond {
		t.Errorf("end = %v", end)
	}
}

func TestProcWaitOnAlreadyDone(t *testing.T) {
	e := NewEngine()
	c := e.NewCompletion()
	e.At(1*Microsecond, func(now Time) { c.Complete(now) })
	var at Time
	e.Spawn(func(p *Proc) {
		p.Advance(50 * Microsecond)
		p.Yield() // let the event at 1µs process
		p.Wait(c, "done already")
		at = p.Now()
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Completion fired in the past: the proc does not travel back in time.
	if at != 50*Microsecond {
		t.Errorf("now = %v, want 50µs", at)
	}
}

func TestEngineDeadlockDetected(t *testing.T) {
	e := NewEngine()
	c := e.NewCompletion()
	e.Spawn(func(p *Proc) {
		p.Wait(c, "never completed")
	})
	if _, err := e.Run(); err == nil {
		t.Fatal("want deadlock error")
	}
}

// TestDeadlockLeavesNoGoroutines: a deadlocked Run unwinds every parked
// proc — blocked mid-body, and never started — before it returns, running
// their deferred calls on the way out, so a resident server does not leak a
// goroutine set per bad query. Procs that block with events queued in their
// lanes deadlock the same way, once those events have fired.
func TestDeadlockLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var unwound atomic.Int32 // poisoned procs unwind concurrently
	for i := 0; i < 100; i++ {
		e := NewEngine()
		c := e.NewCompletion()
		fired := 0
		for r := 0; r < 4; r++ {
			e.Spawn(func(p *Proc) {
				defer unwound.Add(1)
				p.Advance(Microsecond)
				p.Yield()
				for k := 0; k < 3; k++ {
					e.At(p.Now()+Time(k), func(Time) { fired++ })
				}
				if p.lane.n != 3 {
					t.Errorf("%d events in the lane of a proc about to block, want 3", p.lane.n)
				}
				p.Wait(c, "never completed")
				t.Error("a poisoned proc returned into its body")
			})
		}
		if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("error %v, want a deadlock", err)
		}
		if fired != 12 {
			t.Fatalf("%d of 12 lane events fired before the deadlock", fired)
		}
	}
	if n := unwound.Load(); n != 400 {
		t.Fatalf("%d of 400 procs ran their deferred calls", n)
	}
	// Run waits for the procs' last deferred call, not for the scheduler to
	// retire the goroutines: give the final few a moment to leave the count.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Fatalf("%d goroutines before 100 deadlocking runs, %d after", before, after)
	}
}

func TestEngineRunsLowestTimeFirst(t *testing.T) {
	e := NewEngine()
	var order []int
	mk := func(id int, d Time) {
		e.Spawn(func(p *Proc) {
			p.Advance(d)
			p.Yield()
			order = append(order, id)
		})
	}
	mk(0, 30*Microsecond)
	mk(1, 10*Microsecond)
	mk(2, 20*Microsecond)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Errorf("scheduling order = %v, want [1 2 0]", order)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var log []int
		for i := 0; i < 4; i++ {
			id := i
			e.Spawn(func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Advance(Time((id + 1) * 7 * int(Microsecond)))
					p.Yield()
					log = append(log, id*10+k)
				}
			})
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a, b)
		}
	}
}

func TestClusterTransferSingleFlow(t *testing.T) {
	cl := NewCluster(2, MPICHGM())
	var delivered Time
	bytes := int64(100000)
	cl.Transfer(0, 1, bytes, 0, func(at Time) { delivered = at })
	// Need a dummy proc so Run has something to finish... events alone
	// suffice: Run returns when heap is empty and no procs exist.
	if _, err := cl.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := Time(float64(bytes)*cl.Prof.GapNsPerByte) + cl.Prof.Latency
	if delivered != want {
		t.Errorf("delivered at %v, want %v (L + bytes·G)", delivered, want)
	}
}

func TestClusterIncastSerializes(t *testing.T) {
	// Two senders to one receiver: the second message is delayed by the
	// first's drain time at the receiving NIC.
	cl := NewCluster(3, MPICHGM())
	bytes := int64(1000000)
	var d1, d2 Time
	cl.Transfer(0, 2, bytes, 0, func(at Time) { d1 = at })
	cl.Transfer(1, 2, bytes, 0, func(at Time) { d2 = at })
	if _, err := cl.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	wire := Time(float64(bytes) * cl.Prof.GapNsPerByte)
	if d1 != wire+cl.Prof.Latency {
		t.Errorf("first delivery %v, want %v", d1, wire+cl.Prof.Latency)
	}
	if d2 != d1+wire {
		t.Errorf("second delivery %v, want %v (serialized)", d2, d1+wire)
	}
}

func TestClusterSenderSerializes(t *testing.T) {
	// One sender, two messages to different receivers: injection is serial.
	cl := NewCluster(3, MPICHGM())
	bytes := int64(500000)
	var d1, d2 Time
	cl.Transfer(0, 1, bytes, 0, func(at Time) { d1 = at })
	cl.Transfer(0, 2, bytes, 0, func(at Time) { d2 = at })
	if _, err := cl.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	wire := Time(float64(bytes) * cl.Prof.GapNsPerByte)
	if d2-d1 != wire {
		t.Errorf("second start not serialized: d1=%v d2=%v want gap %v", d1, d2, wire)
	}
}

func TestClusterLoopback(t *testing.T) {
	cl := NewCluster(2, MPICHTCP())
	var at Time = -1
	cl.Transfer(1, 1, 12345, 7*Microsecond, func(t Time) { at = t })
	if _, err := cl.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7*Microsecond {
		t.Errorf("loopback at %v, want 7µs", at)
	}
}

func TestStatsCounted(t *testing.T) {
	cl := NewCluster(2, MPICHGM())
	cl.Transfer(0, 1, 1000, 0, func(Time) {})
	cl.Transfer(0, 1, 2000, 0, func(Time) {})
	if _, err := cl.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if cl.Stat.Messages != 2 || cl.Stat.Bytes != 3000 {
		t.Errorf("stats = %+v", cl.Stat)
	}
}
