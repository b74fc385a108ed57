// Class graph sets as bitmaps. The search starts by intersecting, for
// every indexed structure in the query, the set of graphs that contain it
// (Algorithm 2's structure-only step). A class records that set once, as
// the union of its entries' id runs; Pair lays it out as one bit per
// graph, so the intersection is a word-wise AND — 64 graphs a step, no
// decoding, and deleted graphs leave with one more AND-NOT.
//
// The bitmaps are heap-resident on heap and mapped indexes alike, at
// classes × n / 8 bytes: a mined class is in at least a few percent of the
// graphs, so its bitmap is smaller than an []int32 list of them. They are
// sized by the graphs the index serves, which a build has in hand and an
// image learns at Pair — never by an image's own graph count, which
// nothing in the image bounds.

package index

import (
	"fmt"
	"math/bits"

	"pis/internal/graph"
)

// Pair readies an index to answer searches over db, which must be the
// exact graph set it was built over: every class gets its bitmap, read off
// its entry runs.
// An image of an older layout has its classes rebuilt from db, as a build
// over it would lay them out (persist.go). An index from Build or Rebase is
// paired already; one from Load or OpenMapped is paired by the first
// core.NewSearcher over it.
func (x *Index) Pair(db []*graph.Graph) error {
	x.pairMu.Lock()
	defer x.pairMu.Unlock()
	if len(db) != x.dbSize {
		return fmt.Errorf("index: pairing a %d-graph index with %d graphs", x.dbSize, len(db))
	}
	switch {
	case x.paired:
	case x.image != nil:
		x.image, x.inMapping = nil, false
		x.foldAndSeal(db, 0, 0)
	default:
		x.pair(db)
	}
	return nil
}

// pair is Pair's work, over the len(db) == x.dbSize graphs of the index:
// a class's bitmap holds every id of every one of its entry runs, which a
// build wrote and an open walked (checkBlocks), so each lies below dbSize.
func (x *Index) pair(db []*graph.Graph) {
	words := (len(db) + 63) >> 6
	slab := make([]uint64, words*len(x.list))
	for i, c := range x.list {
		set := slab[i*words : (i+1)*words : (i+1)*words]
		for e := range c.ents.n() {
			run := c.ents.run(e)
			for j, id := 0, uint32(0); j < len(run); {
				var gap uint32
				gap, j = nextGap(run, j)
				id += gap
				set[id>>6] |= 1 << (id & 63)
			}
		}
		c.bits, c.graphs = set, 0
		for _, w := range set {
			c.graphs += bits.OnesCount64(w)
		}
	}
	x.paired = true
}

// Memory is the heap an index holds: its class stores, and beside them
// what it holds on a mapped index too, the part of an index's footprint
// its image's size does not show.
type Memory struct {
	StoreBytes  int // class entry blocks: the image's slab, 0 when mapped
	BitmapBytes int // class bitmaps: classes × graphs / 8, 0 before Pair
	// FingerprintBytes is the prescreen fingerprints of the graphs the
	// index serves, which the graphs carry (graph.FP): the segment fills
	// it, counting its delta graphs too. Index.Memory leaves it 0.
	FingerprintBytes int
}

// Memory reports x's class store and bitmap bytes.
func (x *Index) Memory() Memory {
	var m Memory
	if len(x.list) > 0 {
		m.BitmapBytes = 8 * len(x.list[0].bits) * len(x.list)
	}
	for _, c := range x.list {
		m.StoreBytes += c.ents.size()
	}
	if x.inMapping {
		m.StoreBytes = 0
	}
	return m
}

// Candidates appends to dst, ascending, the graphs that hold every one of
// classes and are not in tombs (nil = none): the structure-only candidate
// set, tombstoned ids dropped because the class stores keep deleted graphs
// until compaction. No classes means no structural information: every live
// graph. The index must be paired.
func (x *Index) Candidates(dst []int32, classes []*Class, tombs *Tombstones) []int32 {
	var dead []uint64
	if tombs != nil {
		dead = tombs.words
	}
	n := x.dbSize
	for w, words := 0, (n+63)>>6; w < words; w++ {
		acc := ^uint64(0)
		if w == n>>6 {
			acc = 1<<(uint(n)&63) - 1 // the last, partial word
		}
		for _, c := range classes {
			acc &= c.bits[w]
		}
		if w < len(dead) {
			acc &^= dead[w]
		}
		for ; acc != 0; acc &= acc - 1 {
			dst = append(dst, int32(w<<6|bits.TrailingZeros64(acc)))
		}
	}
	return dst
}
