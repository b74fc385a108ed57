// Per-graph structural fingerprints for the verification prescreen.
//
// An FP condenses one graph into a few cache-line-sized necessary
// conditions for "query Q superimposes onto G within σ":
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
// the index's class bitmaps answer that exactly, ahead of the prescreen,
// so a hashed summary of it here has nothing left to reject.
//
// Every test is conservative: a rejected graph provably has d(Q, G) > σ,
// so the prescreen never changes answers, only skips branch-and-bound
// work. The fingerprint is a pure function of the graph and costs about a
// microsecond, so every constructor fills it (layout): no Graph
// exists without one, and no image or snapshot stores it. The second
// prescreen tier, the invariants (invariants.go), costs some 30 times as
// much and stays lazy.

package graph

import "math/bits"

const (
	// fpDegTail is how many degree-tail counters a fingerprint keeps:
	// DegTail[k] counts vertices with degree >= k+1.
	fpDegTail = 8
	// fpEdgeBuckets / fpVertexBuckets size the label-multiset histograms.
	fpEdgeBuckets   = 32
	fpVertexBuckets = 16
)

// FP is the prescreen fingerprint of one graph, 64 bytes. Counters
// saturate at 255, which only ever weakens (never invalidates) the
// derived bounds: a query within a host's counts stays within them, and a
// saturated deficit is never larger than the true one.
type FP struct {
	NV, NE  int32
	DegTail [fpDegTail]uint8
	ELab    [fpEdgeBuckets]uint8
	VLab    [fpVertexBuckets]uint8
}

// labelBucket mixes a label into one of n buckets. Fibonacci hashing
// spreads the small dense label spaces real datasets use.
func labelBucket(l uint32, n uint32) uint32 {
	return (l * 2654435761) >> 7 % n
}

func satInc(c *uint8) {
	if *c != ^uint8(0) {
		*c++
	}
}

// FP returns g's fingerprint. Callers must not modify it.
func (g *Graph) FP() *FP { return &g.fp }

// computeFP returns g's fingerprint; the constructors store it once g's
// edges and adjacency are in place.
func computeFP(g *Graph) FP {
	fp := FP{NV: int32(g.N()), NE: int32(g.M())}
	for v, l := range g.vlabels {
		for k := range min(g.Degree(v), fpDegTail) {
			satInc(&fp.DegTail[k])
		}
		satInc(&fp.VLab[labelBucket(uint32(l), fpVertexBuckets)])
	}
	for _, e := range g.edges {
		satInc(&fp.ELab[labelBucket(uint32(e.Label), fpEdgeBuckets)])
	}
	return fp
}

// QueryFP is the query-side prescreen state: the query's own structural
// fingerprint plus the metric's label-mismatch cost floors, computed once
// per search and tested against every candidate. A label bucket the query
// leaves empty has no deficit and a zero degree tail no shortfall, so it
// also marks the buckets the query fills and counts its non-zero tails —
// a prefix, since tails only fall — and Admissible reads only those.
type QueryFP struct {
	fp             FP
	vFloor, eFloor float64
	eOcc           uint32 // bit b: ELab[b] > 0
	vOcc           uint16 // bit b: VLab[b] > 0
	tails          int
}

// NewQueryFP builds the prescreen state for query q.
func NewQueryFP(q *Graph, vFloor, eFloor float64) QueryFP { return newQueryFP(q.fp, vFloor, eFloor) }

func newQueryFP(fp FP, vFloor, eFloor float64) QueryFP {
	qfp := QueryFP{fp: fp, vFloor: vFloor, eFloor: eFloor}
	for qfp.tails < fpDegTail && fp.DegTail[qfp.tails] != 0 {
		qfp.tails++
	}
	for b, n := range fp.ELab {
		qfp.eOcc |= uint32(min(n, 1)) << b
	}
	for b, n := range fp.VLab {
		qfp.vOcc |= uint16(min(n, 1)) << b
	}
	return qfp
}

// Admissible reports whether a graph with fingerprint g can possibly be
// within superimposed distance sigma of the query. A false return is a
// proof of d > sigma (or of no embedding at all); true just means the
// fingerprint could not refute it. The degree loop accumulates into a
// flag word instead of branching per tail.
func (qfp *QueryFP) Admissible(g *FP, sigma float64) bool {
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
