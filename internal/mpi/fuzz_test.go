package mpi

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// FuzzMatchOrder decodes bytes into a small MPI program — np ranks, user
// sends and receives with tags {0, 1, 2, any} at eager and rendezvous sizes,
// computes, collectives between segments, waits at the end — runs it under an
// offload and a host-progress profile, and checks MPI's matching rules on
// the outcome:
//
//   - every message is received exactly once, by a receive of its channel
//     that accepts its tag;
//   - messages do not overtake: a receive that took a channel's b-th message
//     and accepts its a-th (a < b) was posted after the one that took the a-th;
//   - an earlier-posted eligible receive matches first: of two receives of a
//     channel that both accept what the later-posted one took, the earlier
//     one took an earlier message;
//   - the collectives' data is right, whatever user traffic is outstanding;
//   - a second run, right after the first and so on the requests, lane
//     rings and matching queues the first gave back, is identical to it.
//
// Programs are deadlock-free under any matching MPI allows: no rank waits
// before the end and, per channel, receive tags either equal the messages'
// in order with some replaced by any-tag, or permute them without any-tag —
// both of which MPI matches completely whatever the timing.
func FuzzMatchOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeMatchProgram(data)
		for _, prof := range []netsim.Profile{netsim.MPICHGM(), netsim.MPICHTCP()} {
			first := p.run(prof)
			if first.err != nil {
				t.Fatalf("%s: %v\n%s", prof, first.err, p)
			}
			if why := p.check(first); why != "" {
				t.Fatalf("%s: %s\n%s", prof, why, p)
			}
			if again := p.run(prof); !reflect.DeepEqual(first, again) {
				t.Fatalf("%s: a run on recycled memory differs from the first\n%s", prof, p)
			}
		}
	})
}

// Sizes: one far below both profiles' eager thresholds, one far above.
const (
	smallMsg = 8
	bigMsg   = 64 << 10
)

type matchOpKind uint8

const (
	opSend matchOpKind = iota
	opRecv
	opCompute
	opWait
)

type matchOp struct {
	kind  matchOpKind
	peer  int
	tag   int
	bytes int64
	d     netsim.Time
	id    int // send: message id; receive: receive id; wait: request index
}

// matchProgram is a decoded input. A rank runs segs[0], the first
// collective, segs[1], … then its waits.
type matchProgram struct {
	np    int
	colls []int64 // 0 is a Barrier, n an Alltoall of n bytes per partition
	segs  [][][]matchOp
	waits [][]matchOp
	// Per message and per receive: its channel (dst·np + src), its index in
	// that channel (send order, post order) and its tag.
	msgs, recvs []endpointOp
}

type endpointOp struct{ ch, k, tag int }

// byteSource hands out small numbers from the fuzz input, zeros once it
// is spent.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) next(n int) int {
	if s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i]) % n
	s.i++
	return v
}

func decodeMatchProgram(data []byte) *matchProgram {
	src := &byteSource{b: data}
	p := &matchProgram{np: 2 + src.next(3)}
	permuted := src.next(2) == 1
	for n := src.next(3); n > 0; n-- {
		p.colls = append(p.colls, []int64{0, smallMsg, bigMsg}[src.next(3)])
	}
	p.segs = make([][][]matchOp, p.np)
	for r := range p.segs {
		p.segs[r] = make([][]matchOp, len(p.colls)+1)
	}
	insert := func(rank int, op matchOp) {
		seg := &p.segs[rank][src.next(len(p.colls)+1)]
		at := src.next(len(*seg) + 1)
		*seg = append((*seg)[:at], append([]matchOp{op}, (*seg)[at:]...)...)
	}
	computes := []netsim.Time{0, netsim.Microsecond, 20 * netsim.Microsecond, 300 * netsim.Microsecond}
	for n := src.next(13); n > 0; n-- {
		from, to := src.next(p.np), src.next(p.np)
		bytes := int64(smallMsg)
		if src.next(4) == 0 {
			bytes = bigMsg
		}
		tag := src.next(3)
		insert(from, matchOp{kind: opSend, peer: to, tag: tag, bytes: bytes})
		insert(to, matchOp{kind: opRecv, peer: from, bytes: bytes})
		if d := computes[src.next(4)]; d > 0 {
			insert(src.next(p.np), matchOp{kind: opCompute, d: d})
		}
	}
	// Number messages and receives in program order, per channel; a
	// channel's k-th receive takes its tag from the k-th message (aligned)
	// or from a permutation of the channel's messages.
	sent := map[int][]int{} // channel -> message ids in send order
	var recvOps []*matchOp
	for r := 0; r < p.np; r++ {
		for _, seg := range p.segs[r] {
			for i := range seg {
				op := &seg[i]
				switch op.kind {
				case opSend:
					ch := op.peer*p.np + r
					op.id = len(p.msgs)
					p.msgs = append(p.msgs, endpointOp{ch, len(sent[ch]), op.tag})
					sent[ch] = append(sent[ch], op.id)
				case opRecv:
					op.id = len(p.recvs)
					p.recvs = append(p.recvs, endpointOp{ch: r*p.np + op.peer})
					recvOps = append(recvOps, op)
				}
			}
		}
	}
	posted := map[int]int{}
	perm := map[int][]int{}
	for id, op := range recvOps {
		ch := p.recvs[id].ch
		k := posted[ch]
		posted[ch]++
		p.recvs[id].k = k
		if permuted {
			if perm[ch] == nil {
				perm[ch] = append([]int(nil), sent[ch]...)
				shuffle(src, perm[ch])
			}
			op.tag = p.msgs[perm[ch][k]].tag
		} else {
			op.tag = p.msgs[sent[ch][k]].tag
			if src.next(3) == 0 {
				op.tag = AnyTag
			}
		}
		p.recvs[id].tag = op.tag
	}
	// Each rank waits on all its requests, in a decoded order, between
	// decoded computes.
	p.waits = make([][]matchOp, p.np)
	for r := range p.waits {
		n := 0
		for _, seg := range p.segs[r] {
			for _, op := range seg {
				if op.kind == opSend || op.kind == opRecv {
					n++
				}
			}
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		shuffle(src, order)
		for _, req := range order {
			if d := computes[src.next(4)]; d > 0 {
				p.waits[r] = append(p.waits[r], matchOp{kind: opCompute, d: d})
			}
			p.waits[r] = append(p.waits[r], matchOp{kind: opWait, id: req})
		}
	}
	return p
}

func shuffle(src *byteSource, xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := src.next(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

func (p *matchProgram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "np %d, collectives %v\n", p.np, p.colls)
	for r := 0; r < p.np; r++ {
		fmt.Fprintf(&b, "rank %d:", r)
		segs := p.segs[r]
		for s, seg := range append(segs[:len(segs):len(segs)], p.waits[r]) {
			if s > 0 {
				b.WriteString(" |")
			}
			for _, op := range seg {
				switch op.kind {
				case opSend:
					fmt.Fprintf(&b, " send(m%d→%d tag %d %dB)", op.id, op.peer, op.tag, op.bytes)
				case opRecv:
					fmt.Fprintf(&b, " recv(r%d←%d tag %d)", op.id, op.peer, op.tag)
				case opCompute:
					fmt.Fprintf(&b, " compute(%v)", op.d)
				case opWait:
					fmt.Fprintf(&b, " wait(%d)", op.id)
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Payloads name what they are, so a message delivered to the wrong kind of
// receive shows: a user message's words are (userWord, id), an Alltoall
// partition's (collWord, src, dst).
const (
	userWord = 0x75736572
	collWord = 0x636f6c6c
)

// matchBinding is a run's Binding: a send's buffer is a *[]uint64, a
// receive's a *delivery, which checks and records what lands in it.
type matchBinding struct{ out *matchOutcome }

// delivery is a receive's buffer: a user receive's id, or the collective
// (counted from 0) whose partitions rank me receives.
type delivery struct {
	user   bool
	id, me int
}

func (matchBinding) Read(p Payload, words []uint64) bool { return cells{}.Read(p, words) }

func (b matchBinding) Write(p, _ Payload, words []uint64) {
	d, out := p.Buf.(*delivery), b.out
	switch {
	case d.user && len(words) == 2 && words[0] == userWord:
		out.got[d.id] = append(out.got[d.id], int(words[1]))
	case d.user:
		out.bad = append(out.bad, fmt.Sprintf("receive r%d got %v, not a user message", d.id, words))
	default:
		src := int(p.Off / p.Count)
		if want := []uint64{collWord, uint64(src), uint64(d.me)}; !slices.Equal(words, want) {
			out.bad = append(out.bad, fmt.Sprintf("collective %d: rank %d got %v from %d", d.id, d.me, words, src))
		}
	}
}

// matchOutcome is what a run observably did.
type matchOutcome struct {
	got   [][]int // per receive: the message ids placed into it
	bad   []string
	stats *RunStats
	err   error
}

func (p *matchProgram) run(prof netsim.Profile) matchOutcome {
	out := matchOutcome{got: make([][]int, len(p.recvs))}
	out.stats, out.err = Run(p.np, prof, func(r *Rank) {
		r.Bind(matchBinding{&out})
		me := r.Me()
		var reqs []*Request
		for s, seg := range p.segs[me] {
			for _, op := range seg {
				switch id := op.id; op.kind {
				case opSend:
					reqs = append(reqs, r.IsendPayload(op.peer, op.tag, op.bytes, vals(userWord, uint64(id))))
				case opRecv:
					reqs = append(reqs, r.IrecvPayload(op.peer, op.tag, op.bytes, Payload{Buf: &delivery{user: true, id: id}, Count: 2}))
				case opCompute:
					r.Compute(op.d)
				}
			}
			if s == len(p.colls) {
				break
			}
			if coll, bytes := s, p.colls[s]; bytes == 0 {
				r.Barrier()
			} else {
				send := make([]uint64, 0, 3*p.np)
				for dst := 0; dst < p.np; dst++ {
					send = append(send, collWord, uint64(me), uint64(dst))
				}
				r.AlltoallPayload(bytes, Payload{Buf: &send, Count: 3}, Payload{Buf: &delivery{id: coll, me: me}, Count: 3})
			}
		}
		for _, op := range p.waits[me] {
			if op.kind == opCompute {
				r.Compute(op.d)
			} else {
				r.Wait(reqs[op.id])
			}
		}
	})
	return out
}

// check returns the first matching rule the outcome breaks, or "".
func (p *matchProgram) check(out matchOutcome) string {
	if len(out.bad) > 0 {
		return out.bad[0]
	}
	accepts := func(recvTag, msgTag int) bool { return recvTag == AnyTag || recvTag == msgTag }
	took := make([]int, len(p.msgs)) // message -> receive, -1 for none
	for i := range took {
		took[i] = -1
	}
	for rid, ms := range out.got {
		if len(ms) != 1 {
			return fmt.Sprintf("receive r%d got messages %v, want exactly one", rid, ms)
		}
		m, r := p.msgs[ms[0]], p.recvs[rid]
		if m.ch != r.ch || !accepts(r.tag, m.tag) {
			return fmt.Sprintf("receive r%d (tag %d) took m%d (tag %d) of another channel or tag", rid, r.tag, ms[0], m.tag)
		}
		if took[ms[0]] >= 0 {
			return fmt.Sprintf("message m%d received twice", ms[0])
		}
		took[ms[0]] = rid
	}
	for mid, rid := range took {
		if rid < 0 {
			return fmt.Sprintf("message m%d never received", mid)
		}
	}
	for rid, ms := range out.got {
		r, mb := p.recvs[rid], p.msgs[ms[0]]
		for mid, ma := range p.msgs {
			if ma.ch == r.ch && ma.k < mb.k && accepts(r.tag, ma.tag) && p.recvs[took[mid]].k > r.k {
				return fmt.Sprintf("m%d overtook m%d: receive r%d took the later one", ms[0], mid, rid)
			}
		}
		for eid, e := range p.recvs {
			if e.ch == r.ch && e.k < r.k && accepts(e.tag, mb.tag) && p.msgs[out.got[eid][0]].k > mb.k {
				return fmt.Sprintf("receive r%d took m%d though the earlier-posted r%d accepted it", rid, ms[0], eid)
			}
		}
	}
	return ""
}
