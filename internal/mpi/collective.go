package mpi

// The two collectives the Fortran binding reaches, Alltoall and Barrier,
// implemented over the point-to-point layer the way MPICH-era libraries did.
// Their messages travel in the collective context (collCtx), so the
// program's own receives never see them; within it each collective keeps a
// tag of its own.

import "repro/internal/netsim"

const (
	tagAlltoall = 1
	tagBarrier  = 2
)

// memcpyNsPerByte prices local buffer copies (the alltoall self partition):
// zero-copy NICs do not make local memcpys free.
const memcpyNsPerByte = 1.0

// AlltoallPayload exchanges one partition with every rank: partition i of
// send (send.Count elements at send.Off + i·send.Count) goes to rank i, and
// the one from rank i lands in partition i of recv. bytesPer is the
// partition size in bytes. The self partition moves by local copy. The whole
// exchange happens inside this call (no overlap with computation), exactly
// like the original codes the paper transforms.
func (r *Rank) AlltoallPayload(bytesPer int64, send, recv Payload) {
	tag := tagAlltoall
	reqs := r.coll[:0]
	// Staggered ring order to avoid hammering rank 0 first.
	for j := 1; j < r.np; j++ {
		src := (r.np + r.me - j) % r.np
		reqs = append(reqs, r.irecv(collCtx, src, tag, bytesPer, recv.part(src)))
	}
	for j := 1; j < r.np; j++ {
		dst := (r.me + j) % r.np
		reqs = append(reqs, r.isend(collCtx, dst, tag, bytesPer, send.part(dst)))
	}
	r.coll = reqs
	self := send.part(r.me)
	words := r.read(self)
	r.write(recv.part(r.me), self, words)
	r.mem.reuse(words)
	r.Compute(netsim.Time(float64(bytesPer) * memcpyNsPerByte)) // local partition memcpy
	r.Waitall(reqs)
}

// Alltoall is AlltoallPayload with closures for buffers: fetch(dst) supplies
// the partition destined for dst, place(src, payload) stores the partition
// received from src.
func (r *Rank) Alltoall(bytesPer int64, fetch func(dst int) interface{}, place func(src int, payload interface{})) {
	r.AlltoallPayload(bytesPer, Payload{Buf: fetchAtFunc(fetch), Count: 1}, Payload{Buf: placeAtFunc(place), Count: 1})
}

// Barrier synchronizes all ranks (central coordinator algorithm: gather
// zero-byte tokens at rank 0, then broadcast the release).
func (r *Rank) Barrier() {
	tag := tagBarrier
	if r.me == 0 {
		for src := 1; src < r.np; src++ {
			r.Wait(r.irecv(collCtx, src, tag, 1, Payload{}))
		}
		for dst := 1; dst < r.np; dst++ {
			r.Wait(r.isend(collCtx, dst, tag, 1, Payload{}))
		}
	} else {
		r.Wait(r.isend(collCtx, 0, tag, 1, Payload{}))
		r.Wait(r.irecv(collCtx, 0, tag, 1, Payload{}))
	}
}
