package mpi

import "repro/internal/netsim"

// cells is the tests' Binding: a payload's buffer is a *[]uint64.
type cells struct{}

func (cells) Read(p Payload, words []uint64) bool {
	copy(words, (*p.Buf.(*[]uint64))[p.Off:])
	return true
}

func (cells) Write(p, _ Payload, words []uint64) {
	copy((*p.Buf.(*[]uint64))[p.Off:], words)
}

// whole is the payload of all of b.
func whole(b *[]uint64) Payload { return Payload{Buf: b, Count: int64(len(*b))} }

// vals is a payload holding v.
func vals(v ...uint64) Payload { return whole(&v) }

// runCells is Run with every rank bound to cells.
func runCells(np int, prof netsim.Profile, body func(r *Rank)) (*RunStats, error) {
	return Run(np, prof, func(r *Rank) {
		r.Bind(cells{})
		body(r)
	})
}
