package mpi

// Collective operations, implemented over the point-to-point layer the way
// MPICH-era libraries did. Their messages travel in the collective context
// (collCtx), so the program's own receives never see them; within it each
// collective keeps a tag of its own.

import "repro/internal/netsim"

const (
	tagAlltoall   = 1
	tagBarrier    = 2
	tagBcast      = 3
	tagAllgathers = 6
	tagAlltoallv  = 7
)

// memcpyNsPerByte prices local buffer copies (the alltoall self partition):
// zero-copy NICs do not make local memcpys free.
const memcpyNsPerByte = 1.0

// Alltoall exchanges one partition with every rank: fetch(dst) supplies the
// partition destined for dst, place(src, payload) stores the partition
// received from src. bytesPer is the partition size in bytes. The self
// partition moves by local copy. The whole exchange happens inside this
// call (no overlap with computation), exactly like the original codes the
// paper transforms.
func (r *Rank) Alltoall(bytesPer int64, fetch func(dst int) interface{}, place func(src int, payload interface{})) {
	tag := tagAlltoall
	reqs := make([]*Request, 0, 2*(r.np-1))
	// Staggered ring order to avoid hammering rank 0 first.
	for j := 1; j < r.np; j++ {
		src := (r.np + r.me - j) % r.np
		reqs = append(reqs, r.irecv(collCtx, src, tag, bytesPer, func(p interface{}) { place(src, p) }))
	}
	for j := 1; j < r.np; j++ {
		dst := (r.me + j) % r.np
		reqs = append(reqs, r.isend(collCtx, dst, tag, bytesPer, func() interface{} { return fetch(dst) }))
	}
	place(r.me, fetch(r.me))
	r.Compute(netsim.Time(float64(bytesPer) * memcpyNsPerByte)) // local partition memcpy
	r.Waitall(reqs)
}

// Barrier synchronizes all ranks (central coordinator algorithm: gather
// zero-byte tokens at rank 0, then broadcast the release).
func (r *Rank) Barrier() {
	tag := tagBarrier
	none := func() interface{} { return nil }
	drop := func(interface{}) {}
	if r.me == 0 {
		for src := 1; src < r.np; src++ {
			r.Wait(r.irecv(collCtx, src, tag, 1, drop))
		}
		for dst := 1; dst < r.np; dst++ {
			r.Wait(r.isend(collCtx, dst, tag, 1, none))
		}
	} else {
		r.Wait(r.isend(collCtx, 0, tag, 1, none))
		r.Wait(r.irecv(collCtx, 0, tag, 1, drop))
	}
}

// Bcast distributes root's payload to all ranks along a binomial tree.
// fetch supplies the payload on the root; place stores it on every other
// rank. It returns the payload on every rank for convenience.
func (r *Rank) Bcast(root int, bytes int64, fetch func() interface{}, place func(interface{})) {
	tag := tagBcast
	// Rotate ranks so the root is virtual rank 0.
	vr := (r.me - root + r.np) % r.np
	var payload interface{}
	have := false
	if vr == 0 {
		payload = fetch()
		have = true
	}
	// Binomial tree: in round k, ranks < 2^k with bit pattern send to
	// vr + 2^k.
	for k := 1; k < 2*r.np; k <<= 1 {
		if vr < k && vr+k < r.np {
			dst := (vr + k + root) % r.np
			p := payload
			if !have {
				panic("mpi: Bcast internal: sending before receiving")
			}
			r.Wait(r.isend(collCtx, dst, tag, bytes, func() interface{} { return p }))
		} else if vr >= k && vr < 2*k {
			src := (vr - k + root) % r.np
			r.Wait(r.irecv(collCtx, src, tag, bytes, func(p interface{}) { payload = p; have = true }))
			if place != nil {
				place(payload)
			}
		}
	}
	if vr == 0 && place != nil {
		place(payload)
	}
}

// AllgatherInt64s collects a fixed-size []int64 from every rank.
func (r *Rank) AllgatherInt64s(xs []int64) [][]int64 {
	tag := tagAllgathers
	out := make([][]int64, r.np)
	mine := append([]int64(nil), xs...)
	out[r.me] = mine
	bytes := int64(8 * len(xs))
	reqs := make([]*Request, 0, 2*(r.np-1))
	for j := 1; j < r.np; j++ {
		src := (r.np + r.me - j) % r.np
		reqs = append(reqs, r.irecv(collCtx, src, tag, bytes, func(p interface{}) { out[src] = p.([]int64) }))
	}
	for j := 1; j < r.np; j++ {
		dst := (r.me + j) % r.np
		reqs = append(reqs, r.isend(collCtx, dst, tag, bytes, func() interface{} { return mine }))
	}
	r.Waitall(reqs)
	return out
}

// AlltoallvInt64 exchanges variable-size []int64 buffers: parts[dst] is the
// slice destined for dst; the result's [src] element is what src sent here.
// Counts need not be known in advance by the receiver; sizes here are
// carried by the payloads themselves (the byte count still drives timing,
// so each rank first exchanges counts, as real applications do).
func (r *Rank) AlltoallvInt64(parts [][]int64) [][]int64 {
	// Exchange counts with a fixed-size alltoall.
	counts := make([]int64, r.np)
	for i, p := range parts {
		counts[i] = int64(len(p))
	}
	recvCounts := make([]int64, r.np)
	r.Alltoall(8,
		func(dst int) interface{} { return counts[dst] },
		func(src int, p interface{}) { recvCounts[src] = p.(int64) })

	tag := tagAlltoallv
	out := make([][]int64, r.np)
	out[r.me] = append([]int64(nil), parts[r.me]...)
	var reqs []*Request
	for j := 1; j < r.np; j++ {
		src := (r.np + r.me - j) % r.np
		if recvCounts[src] > 0 {
			reqs = append(reqs, r.irecv(collCtx, src, tag, 8*recvCounts[src], func(p interface{}) { out[src] = p.([]int64) }))
		}
	}
	for j := 1; j < r.np; j++ {
		dst := (r.me + j) % r.np
		if len(parts[dst]) > 0 {
			buf := parts[dst]
			reqs = append(reqs, r.isend(collCtx, dst, tag, 8*int64(len(buf)), func() interface{} {
				return append([]int64(nil), buf...)
			}))
		}
	}
	r.Waitall(reqs)
	return out
}
