// Package index implements the fragment-based index of the PIS paper (§4):
// a directory of canonical structure codes, walked as a trie to find
// fragments (query.go), with per-class indexes that answer the range query
// d(g, g') <= σ over the labeled fragments of one structural equivalence
// class.
//
// Every class stores its fragments the same way, as a sorted slab of
// fixed-length keys probed by one scan (slab.go); the metric alone decides
// whether a key holds labels or weights.
//
// Sequence alignment and superposition minimization both come from
// canonical DFS codes: the labels of a fragment are laid out along the
// class code's vertex and edge order, and the class's automorphism
// permutations generate every superposition variant. Storing one
// representative per fragment and probing with every variant of the query
// fragment yields exactly min over superpositions (see DESIGN.md §3).
package index

import (
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

	ents  slab    // stored entries, sealed by finalize
	stage staging // entries while a build or a Load folds them in

	postings []int32 // sorted unique graph ids containing the structure
	// bits is the same set as one bit per graph of the paired database,
	// heap-resident on a mapped class too (bitmap.go); nil until Pair.
	bits []uint64
	// fragments counts the stored (key, graph) pairs: the ids over every
	// entry's run. finalize reads it off the sealed slab, checkBlocks off
	// a mapped class's entry block.
	fragments int

	// Mapped (out-of-core) state: the class's stored entries and posting
	// list live as delta+varint blocks inside the file mapping, decoded
	// on demand. When mapped is set ents and postings are empty.
	mapped    bool
	entBlock  []byte
	postBlock []byte
	entCount  int
	postCount int

	// stats feeds the cost-based query planner; computed at build time
	// and persisted in the image's directory (see stats.go).
	stats ClassStats
}

// SeqLen returns the class sequence length: included vertex positions
// plus edge positions.
func (c *Class) SeqLen() int { return c.vOff + c.NumE }

// Postings returns the sorted graph ids containing this structure.
// Callers must not modify the slice. On a mapped class this decodes a
// fresh slice per call — the search path reads Index.Candidates instead.
func (c *Class) Postings() []int32 {
	if c.mapped {
		return c.AppendPostings(nil)
	}
	return c.postings
}

// PostingCount returns the posting-list length without decoding it.
func (c *Class) PostingCount() int {
	if c.mapped {
		return c.postCount
	}
	return len(c.postings)
}

// AppendPostings appends the sorted posting ids to dst and returns it,
// decoding from the mapped block when out-of-core. Allocation-free when
// dst has capacity.
func (c *Class) AppendPostings(dst []int32) []int32 {
	if !c.mapped {
		return append(dst, c.postings...)
	}
	cur := blockCursor{b: c.postBlock}
	return cur.idList(dst, c.postCount)
}

// Index is the fragment-based index over one graph database.
type Index struct {
	opts Options
	// weights records that keys hold weights, not labels (the metric is
	// distance.WeightKeyed); singleID that a mapped index's entry blocks
	// hold one id per entry instead of a counted run (slab.go).
	weights  bool
	singleID bool
	list     []*Class
	dbSize   int
	// fingerprint identifies the exact graph set the index was built
	// over (graph.Fingerprint).
	fingerprint uint64
	// trie is the class directory as a prefix tree of class codes, which
	// builds and queries walk to find fragments (query.go).
	trie *node
	// fps holds one prescreen fingerprint per graph (see fingerprint.go);
	// nil on an index loaded from an image without the fingerprint
	// section, until Pair recomputes them.
	fps []GraphFP
	// paired records that Pair has laid out the class bitmaps; pairMu makes
	// repeated and concurrent Pair calls harmless.
	pairMu sync.Mutex
	paired bool

	// mapping backs an out-of-core index opened with OpenMapped; nil for
	// a heap index. mappedPath remembers the backing file.
	mapping    *mmapio.Mapping
	mappedPath string
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
	if len(features) == 0 {
		return nil, fmt.Errorf("index: no features")
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

// finalize seals every class's staged entries into its sorted slab, one
// class at a time so the staging of the others is all that stays live.
func (x *Index) finalize() {
	for _, c := range x.list {
		c.ents = c.stage.seal(c.SeqLen(), x.weights)
		c.stage = staging{}
		c.fragments = len(c.ents.ids)
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
	key    []uint64  // mapped scan: the decoded key of the entry priced last
}

// begin readies the buffer for one range query over n graphs.
func (rb *RangeBuffer) begin(n int) {
	if len(rb.dense) < n {
		rb.seen = make([]uint64, (n+63)>>6)
		rb.dense = make([]float64, n)
	}
	rb.lo, rb.hi = len(rb.seen), -1
}

// record folds one observation in, keeping the minimum distance per id.
func (rb *RangeBuffer) record(id int32, d float64) {
	w, bit := int(id)>>6, uint64(1)<<(uint(id)&63)
	if rb.seen[w]&bit == 0 {
		rb.seen[w] |= bit
		rb.dense[id] = d
		rb.lo, rb.hi = min(rb.lo, w), max(rb.hi, w)
	} else if d < rb.dense[id] {
		rb.dense[id] = d
	}
}

// emit appends the recorded ids ascending, with their minimum distances
// aligned, to pl and zeroes the bitmap behind itself.
func (rb *RangeBuffer) emit(pl *PostingList) {
	for w := rb.lo; w <= rb.hi; w++ {
		word := rb.seen[w]
		rb.seen[w] = 0
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
	defer rb.emit(pl)
	x.scanRange(qf, sigma, rb, tombs)
}

// Stats summarizes the index for reporting.
type Stats struct {
	Classes   int
	Fragments int // stored (key, graph) pairs: a key repeated in one graph counts once
	Sequences int
	Postings  int
}

// Stats computes summary statistics.
func (x *Index) Stats() Stats {
	s := Stats{Classes: len(x.list)}
	for _, c := range x.list {
		s.Fragments += c.fragments
		s.Postings += c.PostingCount()
		s.Sequences += int(c.stats.Sequences)
	}
	return s
}
