package netsim

import "fmt"

// Profile is the cost model of one network stack (LogGP-flavoured).
type Profile struct {
	Name string
	// Host CPU costs.
	OSend         Time    // per-message host overhead to post a send
	ORecv         Time    // per-message host overhead to complete a receive
	CopyNsPerByte float64 // host per-byte cost (eager pack, TCP stack copies)
	// Wire costs.
	Latency      Time    // L: first byte propagation
	GapNsPerByte float64 // G: serialization per byte (1/bandwidth)
	// Protocol.
	EagerThreshold int64 // bytes; above this, rendezvous
	CtrlBytes      int64 // control message size (RTS/CTS)
	// Offload: the NIC progresses rendezvous transfers autonomously.
	// When false, bulk data moves only while the owning host is inside an
	// MPI call — the mechanism that defeats overlap on non-offload stacks.
	Offload bool
}

// String names the profile.
func (p Profile) String() string { return p.Name }

// MPICHTCP models an MPICH-over-TCP style stack of the paper's era:
// kernel-managed eager sends up to the socket-buffer size, host-driven
// progress beyond it (a write() past the socket buffer blocks until the
// kernel drains it, so bulk data effectively moves only while the host
// sits in MPI), per-byte stack copy costs, no offload.
func MPICHTCP() Profile {
	return Profile{
		Name:           "mpich-tcp",
		OSend:          15 * Microsecond,
		ORecv:          15 * Microsecond,
		CopyNsPerByte:  4.0, // TCP stack copy + checksum
		Latency:        60 * Microsecond,
		GapNsPerByte:   10.0,      // ~100 MB/s effective
		EagerThreshold: 16 * 1024, // 2005-era socket buffer
		CtrlBytes:      64,
		Offload:        false,
	}
}

// MPICHGM models an MPICH-GM style stack on Myrinet: zero-copy RDMA with a
// network co-processor that progresses communication without the host.
func MPICHGM() Profile {
	return Profile{
		Name:           "mpich-gm",
		OSend:          1 * Microsecond,
		ORecv:          1 * Microsecond,
		CopyNsPerByte:  0, // zero copy
		Latency:        9 * Microsecond,
		GapNsPerByte:   4.0, // ~245 MB/s
		EagerThreshold: 16 * 1024,
		CtrlBytes:      64,
		Offload:        true,
	}
}

// nicState tracks per-rank NIC occupancy for serialization/contention.
type nicState struct {
	sendFree Time // when the send side can inject the next message
	recvFree Time // when the receive side finishes draining the current one
}

// Stats aggregates network activity.
type Stats struct {
	Messages int64
	Bytes    int64
}

// Cluster is NP ranks connected by a full-crossbar network with per-NIC
// serialization (which is what makes the all-to-all incast visible).
type Cluster struct {
	Eng  *Engine
	Prof Profile
	NP   int
	nics []nicState
	Stat Stats
}

// NewCluster builds a cluster of np ranks over a fresh engine.
func NewCluster(np int, prof Profile) *Cluster {
	return &Cluster{
		Eng:  NewEngine(),
		Prof: prof,
		NP:   np,
		nics: make([]nicState, np),
	}
}

// Transfer models moving bytes from src to dst, starting no earlier than t.
// onDelivered fires (as an event) when the last byte has been drained by
// the destination NIC. See Send for the contention model.
func (c *Cluster) Transfer(src, dst int, bytes int64, t Time, onDelivered func(Time)) {
	c.Send(new(Flight), src, dst, bytes, t, funcEvent(onDelivered))
}

// Flight is one message's passage through the network, scheduled as its own
// two stage events; embedded in a record that outlives the message, it makes
// a transfer allocation-free. It carries one message at a time.
type Flight struct {
	c        *Cluster
	to       Event
	bytes    int64
	src, dst int32
	headed   bool // the injection happened; the next stage is the head's arrival
}

// Send moves bytes from src to dst through f, starting no earlier than t,
// and schedules to at the time the last byte has been drained by the
// destination NIC. Contention model: the sender NIC injects messages
// serially (gap G per byte); the head propagates after latency L; the
// receiver NIC drains arrivals serially, so concurrent senders to one
// destination queue up (the alltoall hotspot). A loopback send is a
// memcpy-speed transfer that uses no NIC: to fires at t.
func (c *Cluster) Send(f *Flight, src, dst int, bytes int64, t Time, to Event) {
	if src == dst {
		c.Eng.Schedule(t, to)
		return
	}
	if src < 0 || src >= c.NP || dst < 0 || dst >= c.NP {
		panic(fmt.Sprintf("netsim: rank out of range: %d -> %d (np=%d)", src, dst, c.NP))
	}
	*f = Flight{c: c, to: to, bytes: bytes, src: int32(src), dst: int32(dst)}
	c.Eng.Schedule(t, f)
}

// Fire runs the flight's next stage; only Send schedules it.
func (f *Flight) Fire(now Time) {
	c := f.c
	wire := Time(float64(f.bytes) * c.Prof.GapNsPerByte)
	if !f.headed {
		c.Stat.Messages++
		c.Stat.Bytes += f.bytes
		start := max(now, c.nics[f.src].sendFree)
		c.nics[f.src].sendFree = start + wire
		f.headed = true
		c.Eng.Schedule(start+c.Prof.Latency, f)
		return
	}
	delivered := max(now, c.nics[f.dst].recvFree) + wire
	c.nics[f.dst].recvFree = delivered
	c.Eng.Schedule(delivered, f.to)
}

// CopyCost returns the host CPU time to copy/pack bytes under this profile.
func (c *Cluster) CopyCost(bytes int64) Time {
	return Time(float64(bytes) * c.Prof.CopyNsPerByte)
}
