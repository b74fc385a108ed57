// Per-graph structural fingerprints for the verification prescreen.
//
// A GraphFP condenses one database graph into a few cache-line-sized
// necessary conditions for "query Q superimposes onto G within σ":
//
//   - size: Q needs at least as many vertices and edges as it has;
//   - degree tails: an embedding maps each query vertex onto a distinct
//     host vertex of at least its degree, so for every k the host must
//     have at least as many vertices of degree >= k as the query
//     (sorted-degree-sequence domination, capped at fpDegTail);
//   - label multisets: query edges (vertices) hashed into fixed buckets;
//     every query element in a bucket beyond the host's count there must
//     superimpose onto an element with a different label, so the total
//     bucket deficit times the metric's mismatch cost floor
//     (distance.CostFloors) lower-bounds d(Q, G) — hash collisions only
//     shrink deficits, never inflate them, so the bound stays admissible.
//
// Which indexed structures a graph contains is not fingerprint material:
// the class bitmaps (bitmap.go) answer that exactly, ahead of the
// prescreen, so a hashed summary of it here has nothing left to reject.
//
// Every test is conservative: a rejected graph provably has d(Q, G) > σ,
// so the prescreen never changes answers, only skips branch-and-bound
// work. Fingerprints are a pure function of each graph, so no image stores
// them: a build computes them, and an index read from an image gets them
// from its graphs at Pair. Images written by earlier versions carry them in
// a section the reader never reads.

package index

import (
	"math/bits"

	"pis/internal/graph"
)

const (
	// fpDegTail is how many degree-tail counters a fingerprint keeps:
	// DegTail[k] counts vertices with degree >= k+1.
	fpDegTail = 8
	// fpEdgeBuckets / fpVertexBuckets size the label-multiset histograms.
	fpEdgeBuckets   = 32
	fpVertexBuckets = 16
)

// GraphFP is the prescreen fingerprint of one graph. Counters saturate at
// their type maximum, which only ever weakens (never invalidates) the
// derived bounds.
type GraphFP struct {
	NV, NE  int32
	DegTail [fpDegTail]uint16
	ELab    [fpEdgeBuckets]uint16
	VLab    [fpVertexBuckets]uint16
}

// labelBucket mixes a label into one of n buckets. Fibonacci hashing
// spreads the small dense label spaces real datasets use.
func labelBucket(l uint32, n uint32) uint32 {
	return (l * 2654435761) >> 7 % n
}

func satInc(c *uint16) {
	if *c != ^uint16(0) {
		*c++
	}
}

// fillGraphFP computes g's fingerprint into fp.
func fillGraphFP(fp *GraphFP, g *graph.Graph) {
	fp.NV, fp.NE = int32(g.N()), int32(g.M())
	fp.DegTail = [fpDegTail]uint16{}
	fp.ELab = [fpEdgeBuckets]uint16{}
	fp.VLab = [fpVertexBuckets]uint16{}
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		if d > fpDegTail {
			d = fpDegTail
		}
		for k := 0; k < d; k++ {
			satInc(&fp.DegTail[k])
		}
		satInc(&fp.VLab[labelBucket(uint32(g.VLabelAt(v)), fpVertexBuckets)])
	}
	for _, e := range g.Edges() {
		satInc(&fp.ELab[labelBucket(uint32(e.Label), fpEdgeBuckets)])
	}
}

// DeltaFP fingerprints a graph outside the index (a segment's delta).
func DeltaFP(g *graph.Graph) GraphFP {
	var fp GraphFP
	fillGraphFP(&fp, g)
	return fp
}

// FingerprintAt returns graph id's fingerprint, or nil when the index
// carries none (read from an image, not yet passed through Pair).
func (x *Index) FingerprintAt(id int32) *GraphFP {
	if x.fps == nil {
		return nil
	}
	return &x.fps[id]
}

// QueryFP is the query-side prescreen state: the query's own structural
// fingerprint plus the metric's label-mismatch cost floors, computed once
// per search and tested against every candidate. A label bucket the query
// leaves empty has no deficit and a zero degree tail no shortfall, so it
// also marks the buckets the query fills and counts its non-zero tails —
// a prefix, since tails only fall — and Admissible reads only those.
type QueryFP struct {
	fp             GraphFP
	vFloor, eFloor float64
	eOcc           uint32 // bit b: ELab[b] > 0
	vOcc           uint16 // bit b: VLab[b] > 0
	tails          int
}

// NewQueryFP builds the prescreen state for query q.
func NewQueryFP(q *graph.Graph, vFloor, eFloor float64) QueryFP {
	var fp GraphFP
	fillGraphFP(&fp, q)
	return newQueryFP(fp, vFloor, eFloor)
}

func newQueryFP(fp GraphFP, vFloor, eFloor float64) QueryFP {
	qfp := QueryFP{fp: fp, vFloor: vFloor, eFloor: eFloor}
	for qfp.tails < fpDegTail && fp.DegTail[qfp.tails] != 0 {
		qfp.tails++
	}
	for b, n := range fp.ELab {
		qfp.eOcc |= uint32(min(n, 1)) << b
	}
	for b, n := range fp.VLab {
		qfp.vOcc |= min(n, 1) << b
	}
	return qfp
}

// Admissible reports whether a graph with fingerprint g can possibly be
// within superimposed distance sigma of the query. A false return is a
// proof of d > sigma (or of no embedding at all); true just means the
// fingerprint could not refute it. The degree loop accumulates into a
// flag word instead of branching per tail.
func (qfp *QueryFP) Admissible(g *GraphFP, sigma float64) bool {
	if qfp.fp.NV > g.NV || qfp.fp.NE > g.NE {
		return false
	}
	var bad uint32
	for k := range qfp.tails {
		// Widen before subtracting: the difference underflows (top bit
		// set) exactly when the query needs more degree->=k+1 vertices
		// than the graph has.
		bad |= (uint32(g.DegTail[k]) - uint32(qfp.fp.DegTail[k])) >> 31
	}
	if bad != 0 {
		return false
	}
	lb := 0.0
	if qfp.eFloor > 0 {
		deficit := 0
		for m := qfp.eOcc; m != 0; m &= m - 1 {
			b := bits.TrailingZeros32(m)
			deficit += max(int(qfp.fp.ELab[b])-int(g.ELab[b]), 0)
		}
		lb = float64(deficit) * qfp.eFloor
	}
	if qfp.vFloor > 0 {
		deficit := 0
		for m := qfp.vOcc; m != 0; m &= m - 1 {
			b := bits.TrailingZeros16(m)
			deficit += max(int(qfp.fp.VLab[b])-int(g.VLab[b]), 0)
		}
		lb += float64(deficit) * qfp.vFloor
	}
	return lb <= sigma
}
