// Compact binary graph encoding, the storage form used by the durable
// store's snapshots and WAL records, and the input to the database
// fingerprint that ties a persisted index to the exact graph set it was
// built over. The text transaction codec (codec.go) stays the interchange
// format; this one is for machine round-trips, so it preserves full
// fidelity including whether a graph carries vertex weights at all.

package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
)

// Encoding flags.
const (
	binHasVWeights = 1 << 0 // vertex weight slab present
	binHasEWeights = 1 << 1 // edge weight slab present
)

// Fingerprint hashes the full contents of an ordered graph set (labels,
// weights, edge structure, graph order) into a 64-bit value that is never
// zero, so zero can mean "no fingerprint recorded": the set size, then
// each graph's binary encoding behind its length. A persisted index
// carries the fingerprint of the set it was built over; loading it
// against any other set fails instead of silently returning wrong
// answers.
func Fingerprint(graphs []*Graph) uint64 {
	h := fnv.New64a()
	size := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64), uint64(len(graphs)))
	h.Write(size)
	var buf []byte
	for _, g := range graphs {
		buf = g.AppendBinary(buf[:0])
		h.Write(binary.AppendUvarint(size[:0], uint64(len(buf))))
		h.Write(buf)
	}
	return max(h.Sum64(), 1)
}

// AppendBinary appends the binary encoding of g to dst and returns the
// extended slice. Layout: flags byte, uvarint n and m, n vertex-label
// uvarints, optional n little-endian float64 vertex weights, m edges as
// (uvarint u, uvarint v, uvarint label), optional m little-endian
// float64 edge weights.
func (g *Graph) AppendBinary(dst []byte) []byte {
	flags := byte(0)
	if g.vweights != nil {
		flags |= binHasVWeights
	}
	if slices.ContainsFunc(g.eweights, func(w float64) bool { return w != 0 }) {
		flags |= binHasEWeights
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(g.N()))
	dst = binary.AppendUvarint(dst, uint64(g.M()))
	for _, l := range g.vlabels {
		dst = binary.AppendUvarint(dst, uint64(l))
	}
	if flags&binHasVWeights != 0 {
		for _, w := range g.vweights {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w))
		}
	}
	for _, e := range g.edges {
		dst = binary.AppendUvarint(dst, uint64(e.U))
		dst = binary.AppendUvarint(dst, uint64(e.V))
		dst = binary.AppendUvarint(dst, uint64(e.Label))
	}
	if flags&binHasEWeights != 0 {
		for _, w := range g.eweights {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w))
		}
	}
	return dst
}

// DecodeBinary decodes one graph from the front of b, returning the graph
// and the unconsumed remainder. The input is trusted to the extent of its
// framing (snapshot and WAL payloads are CRC-checked before decoding);
// structural invariants are still validated — every edge ordered, inside
// the vertex range and listed once, as Builder requires — so a logic bug
// upstream or a crafted RPC frame fails loudly instead of producing a
// malformed Graph.
func DecodeBinary(b []byte) (*Graph, []byte, error) {
	fail := func(what string) (*Graph, []byte, error) {
		return nil, nil, fmt.Errorf("graph: truncated binary encoding (%s)", what)
	}
	if len(b) < 1 {
		return fail("flags")
	}
	flags := b[0]
	b = b[1:]
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return fail("vertex count")
	}
	b = b[k:]
	m, k := binary.Uvarint(b)
	if k <= 0 {
		return fail("edge count")
	}
	b = b[k:]
	if n > uint64(len(b)) || m > uint64(len(b))/3 {
		return fail("counts exceed payload")
	}
	vl := make([]VLabel, n)
	for i := range vl {
		l, k := binary.Uvarint(b)
		if k <= 0 || l > math.MaxUint16 {
			return fail("vertex label")
		}
		vl[i] = VLabel(l)
		b = b[k:]
	}
	// weights reads k float64s if flags has flag; false when b is short.
	weights := func(flag byte, k uint64) ([]float64, bool) {
		if flags&flag == 0 || uint64(len(b))/8 < k {
			return nil, flags&flag == 0
		}
		w := make([]float64, k)
		for i := range w {
			w[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		b = b[8*k:]
		return w, true
	}
	vw, ok := weights(binHasVWeights, n)
	if !ok {
		return fail("vertex weights")
	}
	es := make([]EdgeRec, m)
	for i := range es {
		u, ku := binary.Uvarint(b)
		b = b[max(ku, 0):]
		v, kv := binary.Uvarint(b)
		b = b[max(kv, 0):]
		l, kl := binary.Uvarint(b)
		b = b[max(kl, 0):]
		if ku <= 0 || kv <= 0 || kl <= 0 || l > math.MaxUint16 {
			return fail("edge")
		}
		if u >= v || v >= n {
			return nil, nil, fmt.Errorf("graph: invalid binary edge (%d,%d) in %d-vertex graph", u, v, n)
		}
		es[i] = EdgeRec{U: int32(u), V: int32(v), Label: ELabel(l)}
	}
	ew, ok := weights(binHasEWeights, m)
	if !ok {
		return fail("edge weights")
	}
	g := layout(vl, vw, es, ew, nil)
	if err := g.checkSimple(); err != nil {
		return nil, nil, err
	}
	return g, b, nil
}
