// Package index implements the fragment-based index of the PIS paper (§4):
// a directory of canonical structure codes, walked as a trie to find
// fragments (query.go), with per-class indexes that answer the range query
// d(g, g') <= σ over the labeled fragments of one structural equivalence
// class.
//
// Every class stores its fragments the same way, as one sorted entry block
// of fixed-length keys probed by one scan (slab.go); the metric alone
// decides whether a key holds labels or weights. The block is laid out as
// the image stores it (persist.go), so a heap index and a mapped one differ
// only in where those bytes live.
//
// Sequence alignment and superposition minimization both come from
// canonical DFS codes: the labels of a fragment are laid out along the
// class code's vertex and edge order, and the class's automorphism
// permutations generate every superposition variant. Storing one
// representative per fragment and probing with every variant of the query
// fragment yields exactly min over superpositions.
package index

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"pis/internal/canon"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/mining"
	"pis/internal/mmapio"
)

// Options configures index construction.
type Options struct {
	// Metric is the superimposed distance measure. It also decides what a
	// class stores: weights when it declares distance.WeightKeyed, labels
	// otherwise, without the vertex positions when it is vertex-blind.
	Metric distance.Metric
	// MaxFragmentEdges bounds the features the index keeps a class for,
	// and so the fragments found in graphs; it defaults to the largest
	// feature size.
	MaxFragmentEdges int
}

// Class is one structural equivalence class [f].
type Class struct {
	ID        int
	Key       string
	Code      canon.Code
	Structure *graph.Graph // canonical skeleton; vertex k = DFS id k
	NumV      int
	NumE      int
	// vOff is the number of vertex positions included in sequences: NumV
	// normally, 0 when the metric declares itself vertex-blind (vertex
	// positions would never contribute cost, only distinct keys).
	vOff int

	// perms are the automorphism-induced position permutations over the
	// combined (vertex labels ++ edge labels) sequence.
	perms [][]int
	// conds are the class's symmetry-breaking conditions: the walk emits
	// an embedding only if it places DFS id a below DFS id b for every
	// pair (a, b) (symmetryConditions). path is the root of the class's
	// own one-path trie, which queries walk (plant).
	conds [][2]int32
	path  *node

	// ents are the stored entries in the image's layout: sealed on the
	// heap by a build, read into it by Load, or slices of the mapping of
	// OpenMapped. Their id runs are the class's one record of which graphs
	// hold it.
	ents  entries
	stage staging // entries while a build folds them in

	// bits is the set of graphs holding the structure as one bit per graph
	// of the paired database, heap-resident on a mapped class too, and
	// graphs its population; both filled from the entry runs at Pair
	// (bitmap.go).
	bits   []uint64
	graphs int
	// fragments counts the stored (key, graph) pairs: the ids over every
	// entry's run. finalize counts them as it seals, checkBlocks as it
	// walks an image's entry block.
	fragments int

	// stats feeds the cost-based query planner; computed whenever the
	// class is sealed or opened (see stats.go).
	stats ClassStats
}

// SeqLen returns the class sequence length: included vertex positions
// plus edge positions.
func (c *Class) SeqLen() int { return c.vOff + c.NumE }

// GraphCount returns how many graphs of the paired database contain the
// structure; 0 before Pair.
func (c *Class) GraphCount() int { return c.graphs }

// Index is the fragment-based index over one graph database.
type Index struct {
	opts Options
	// weights records that keys hold weights, not labels (the metric is
	// distance.WeightKeyed).
	weights bool
	list    []*Class
	dbSize  int
	// fingerprint identifies the exact graph set the index was built
	// over (graph.Fingerprint).
	fingerprint uint64
	// trie is the class directory as a prefix tree of class codes, which
	// builds and queries walk to find fragments (query.go).
	trie *node
	// paired records that Pair has laid out the class bitmaps; pairMu makes
	// repeated and concurrent Pair calls harmless.
	pairMu sync.Mutex
	paired bool

	// mapping backs an index opened with OpenMapped; nil for a heap index.
	// inMapping records that the class bytes are slices of the mapping —
	// no longer so once Pair has rebuilt an older image's classes on the
	// heap.
	mapping   *mmapio.Mapping
	inMapping bool
	// image is the file an image of an older layout was opened from: its
	// classes start empty, Save writes these bytes back, and Pair rebuilds
	// the classes from the graphs (persist.go).
	image []byte
}

// Classes returns all classes ordered by ID.
func (x *Index) Classes() []*Class { return x.list }

// DBSize returns the number of graphs the index was built over.
func (x *Index) DBSize() int { return x.dbSize }

// Fingerprint returns the fingerprint of the graph set the index was
// built over (graph.Fingerprint).
func (x *Index) Fingerprint() uint64 { return x.fingerprint }

// Options returns the construction options.
func (x *Index) Options() Options { return x.opts }

// MaxFragmentEdges returns the largest indexed structure size.
func (x *Index) MaxFragmentEdges() int { return x.opts.MaxFragmentEdges }

// Build constructs the index: every fragment of every database graph whose
// skeleton matches a feature is folded into that feature's class index.
// It is BuildParallel with one worker.
func Build(db []*graph.Graph, features []mining.Feature, opts Options) (*Index, error) {
	return BuildParallel(db, features, opts, 1)
}

// scaffold validates the build inputs and returns an index holding the
// empty class directory — codes, automorphism permutations, per-class
// metadata — that every build path folds fragments into.
func scaffold(features []mining.Feature, opts Options) (*Index, error) {
	if opts.Metric == nil {
		return nil, fmt.Errorf("index: Metric is required")
	}
	maxE := 0
	for _, f := range features {
		if f.Edges > maxE {
			maxE = f.Edges
		}
	}
	if opts.MaxFragmentEdges <= 0 || opts.MaxFragmentEdges > maxE {
		opts.MaxFragmentEdges = maxE
	}

	x := &Index{
		opts:    opts,
		weights: distance.ReadsWeights(opts.Metric),
	}
	for _, f := range features {
		if f.Edges > opts.MaxFragmentEdges {
			continue
		}
		cg := f.Graph
		if cg == nil {
			cg = f.Code.Graph()
		}
		_, embs := canon.MinCode(cg) // automorphisms of the canonical skeleton
		vOff := cg.N()
		if distance.IgnoresVertices(opts.Metric) {
			vOff = 0
		}
		c := newClass(len(x.list), f.Key, f.Code, cg, embs, vOff)
		x.list = append(x.list, c)
	}
	x.plant()
	return x, nil
}

// newClass scaffolds class id over its canonical skeleton cg, whose
// automorphisms embs become the position permutations over the combined
// (vertex labels ++ edge labels) sequence and the symmetry-breaking
// conditions. Per-class storage stays empty.
func newClass(id int, key string, code canon.Code, cg *graph.Graph, embs []canon.Embedding, vOff int) *Class {
	c := &Class{
		ID:        id,
		Key:       key,
		Code:      code,
		Structure: cg,
		NumV:      cg.N(),
		NumE:      cg.M(),
		vOff:      vOff,
		conds:     symmetryConditions(embs),
	}
	for _, a := range embs {
		p := make([]int, c.SeqLen())
		for k := 0; k < c.vOff; k++ {
			p[k] = int(a.Vertices[k])
		}
		for t := 0; t < c.NumE; t++ {
			p[c.vOff+t] = c.vOff + int(a.Edges[t])
		}
		c.perms = append(c.perms, p)
	}
	return c
}

// finalize seals every class's staged entries into the image's layout,
// one class at a time so the staging of the others is all that stays live.
func (x *Index) finalize() {
	for _, c := range x.list {
		c.ents, c.fragments = c.stage.seal(x.newEntries(c))
		c.stage = staging{}
	}
}

// PostingList is the flat result of one range query: graph ids ascending
// with the minimum fragment distance aligned per id. The slices are owned
// by the caller-provided buffer and reused across queries; consumers must
// finish with them before the next RangeQueryInto on the same buffer.
type PostingList struct {
	IDs   []int32
	Dists []float64
}

// Len returns the number of in-range graphs.
func (pl *PostingList) Len() int { return len(pl.IDs) }

// RangeBuffer is the dedup and scan scratch shared by every
// RangeQueryInto call of one query. Observations are folded through a
// dense array indexed by graph id beside a bitmap of the ids seen, so
// recording is O(1) per observation and the distinct ids come out
// ascending from one sweep over the touched words — O(n/64 + k), no sort.
// One buffer per query keeps the O(dbSize) dense state single, not one
// copy per fragment.
type RangeBuffer struct {
	dense []float64 // min distance per graph id, valid where its seen bit is set
	seen  []uint64  // bit per graph id; all zero between queries
	// lo and hi bound the words of seen holding a set bit (lo > hi: none).
	lo, hi int

	priced []int     // scan: positions summed per automorphism
	sums   []float64 // scan: prefix sums per automorphism
	probes []uint64  // scan: the probe along each automorphism
}

// begin readies the buffer for one range query over n graphs.
func (rb *RangeBuffer) begin(n int) {
	if len(rb.dense) < n {
		rb.seen = make([]uint64, (n+63)>>6)
		rb.dense = make([]float64, n)
	}
	rb.lo, rb.hi = len(rb.seen), -1
}

// recordRun folds in every graph of an encoded id run (appendIDs) at
// distance d, keeping the minimum distance per id.
func (rb *RangeBuffer) recordRun(run []byte, d float64) {
	if len(run) == 0 {
		return
	}
	// The run ascends, so its first id and its last bound the words it
	// sets.
	first := uint64(run[0])
	if first >= 0x80 {
		first, _ = binary.Uvarint(run)
	}
	rb.lo = min(rb.lo, int(first>>6))
	seen, dense := rb.seen, rb.dense
	id := int32(0)
	for i := 0; i < len(run); {
		var gap uint32
		gap, i = nextGap(run, i)
		id += int32(gap)
		if w, bit := int(id)>>6, uint64(1)<<(uint(id)&63); seen[w]&bit == 0 {
			seen[w] |= bit
			dense[id] = d
		} else if d < dense[id] {
			dense[id] = d
		}
	}
	rb.hi = max(rb.hi, int(id)>>6)
}

// nextGap decodes the uvarint at run[i] of a well-formed id run (appendIDs)
// and returns it with the offset past it.
func nextGap(run []byte, i int) (uint32, int) {
	gap := uint32(run[i])
	i++
	if gap >= 0x80 { // a uvarint of more than one byte, decoded in place
		gap &= 0x7f
		for shift := 7; i < len(run); shift += 7 {
			b := run[i]
			i++
			if gap |= uint32(b&0x7f) << shift; b < 0x80 {
				break
			}
		}
	}
	return gap, i
}

// emit appends the recorded ids ascending, with their minimum distances
// aligned, to pl, leaving out those in tombs, and zeroes the bitmap behind
// itself.
func (rb *RangeBuffer) emit(pl *PostingList, tombs *Tombstones) {
	var dead []uint64
	if tombs != nil {
		dead = tombs.words
	}
	for w := rb.lo; w <= rb.hi; w++ {
		word := rb.seen[w]
		rb.seen[w] = 0
		if w < len(dead) {
			word &^= dead[w]
		}
		for ; word != 0; word &= word - 1 {
			id := int32(w<<6 | bits.TrailingZeros64(word))
			pl.IDs = append(pl.IDs, id)
			pl.Dists = append(pl.Dists, rb.dense[id])
		}
	}
}

// RangeQueryInto answers d(g, G) <= sigma for one query fragment into
// reusable buffers: after the call pl holds the in-range graph ids
// ascending with the minimum fragment distance over every superposition
// aligned per id (Eq. 3 of the paper). Graphs without any in-range
// fragment are absent, and so is every id in tombs (nil = none): the
// class stores keep deleted graphs until compaction, so the range query
// is where they stop existing. A steady-state call allocates
// nothing beyond buffer growth.
func (x *Index) RangeQueryInto(qf QueryFragment, sigma float64, pl *PostingList, rb *RangeBuffer, tombs *Tombstones) {
	mRangeQueries.Inc()
	pl.IDs = pl.IDs[:0]
	pl.Dists = pl.Dists[:0]
	rb.begin(x.dbSize)
	// Deferred so that a panic in the metric still leaves the bitmap zeroed
	// for the buffer's next query.
	defer rb.emit(pl, tombs)
	x.scanRange(qf, sigma, rb)
}

// Stats summarizes the index for reporting.
type Stats struct {
	Classes   int
	Fragments int // stored (key, graph) pairs: a key repeated in one graph counts once
	Sequences int
}

// Stats computes summary statistics.
func (x *Index) Stats() Stats {
	s := Stats{Classes: len(x.list)}
	for _, c := range x.list {
		s.Fragments += c.fragments
		s.Sequences += int(c.stats.Sequences)
	}
	return s
}
