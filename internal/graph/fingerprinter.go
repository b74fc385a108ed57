// The database fingerprint, hashed by one loop: Fingerprint feeds it a
// slice, and a streaming build that never holds the whole graph set in
// memory feeds it one graph at a time. The set size is hashed first,
// which is why NewFingerprinter must be told it up front.

package graph

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
)

// Fingerprint hashes the full contents of an ordered graph set (labels,
// weights, edge structure, graph order) into a 64-bit value that is never
// zero, so zero can mean "no fingerprint recorded". A persisted index
// carries the fingerprint of the set it was built over; loading it
// against any other set fails instead of silently returning wrong
// answers.
func Fingerprint(graphs []*Graph) uint64 {
	f := NewFingerprinter(len(graphs))
	for _, g := range graphs {
		f.Add(g)
	}
	return f.Sum()
}

// Fingerprinter accumulates the database fingerprint one graph at a time.
type Fingerprinter struct {
	h   hash.Hash64
	buf []byte
}

// NewFingerprinter starts a fingerprint over exactly n graphs.
func NewFingerprinter(n int) *Fingerprinter {
	f := &Fingerprinter{h: fnv.New64a()}
	var scratch [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(scratch[:], uint64(n))
	f.h.Write(scratch[:k])
	return f
}

// Add folds the next graph in.
func (f *Fingerprinter) Add(g *Graph) {
	f.buf = g.AppendBinary(f.buf[:0])
	var scratch [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(scratch[:], uint64(len(f.buf)))
	f.h.Write(scratch[:k])
	f.h.Write(f.buf)
}

// Sum returns the fingerprint, never zero.
func (f *Fingerprinter) Sum() uint64 {
	fp := f.h.Sum64()
	if fp == 0 {
		return 1
	}
	return fp
}
