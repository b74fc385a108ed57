// Package index implements the fragment-based index of the PIS paper (§4):
// a hash table from canonical structure codes to per-class indexes that
// answer the range query d(g, g') <= σ over the labeled fragments of one
// structural equivalence class.
//
// Three per-class index kinds mirror Figure 5 of the paper: a trie over
// canonical label sequences (mutation distance), an R-tree over weight
// vectors (linear mutation distance), and a VP-tree under the exact
// fragment metric (any measure).
//
// Sequence alignment and superposition minimization both come from
// canonical DFS codes: the labels of a fragment are laid out along the
// class code's vertex and edge order, and the class's automorphism
// permutations generate every superposition variant. Storing one canonical
// representative per fragment and probing with every variant of the query
// fragment yields exactly min over superpositions (see DESIGN.md §3).
package index

import (
	"fmt"
	"math/bits"
	"slices"

	"pis/internal/canon"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/mining"
	"pis/internal/mmapio"
	"pis/internal/rtree"
	"pis/internal/trie"
	"pis/internal/vptree"
)

// Kind selects the per-class index structure.
type Kind int

const (
	// TrieIndex stores canonical label sequences in a trie (mutation
	// distance; the paper's default for categorical labels).
	TrieIndex Kind = iota
	// RTreeIndex stores weight vectors in an R-tree (linear mutation
	// distance over numeric weights).
	RTreeIndex
	// VPTreeIndex stores label sequences in a vantage-point tree under the
	// exact class metric (any measure; the "metric-based index" option).
	VPTreeIndex
)

func (k Kind) String() string {
	switch k {
	case TrieIndex:
		return "trie"
	case RTreeIndex:
		return "rtree"
	case VPTreeIndex:
		return "vptree"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Options configures index construction.
type Options struct {
	Kind   Kind
	Metric distance.Metric
	// MaxFragmentEdges bounds the fragments enumerated from database
	// graphs; it defaults to the largest feature size.
	MaxFragmentEdges int
	// SignatureWords sizes the per-graph superimposed class signature in
	// 64-bit words (the prescreen's false-drop knob, see fingerprint.go).
	// 0 means the default 2 (128 bits); raise it for feature sets large
	// enough to saturate the signature.
	SignatureWords int
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
	// positions would never contribute cost, only trie fan-out).
	vOff int

	// perms are the automorphism-induced position permutations over the
	// combined (vertex labels ++ edge labels) sequence.
	perms [][]int

	trie  *trie.Trie
	vpSeq [][]uint32 // VPTreeIndex: stored sequences
	vpIDs []int32    // VPTreeIndex: graph id per stored sequence
	vp    *vptree.Tree
	rt    *rtree.Tree
	rtEnt []rtree.Entry // staging for bulk load

	postings  []int32 // sorted unique graph ids containing the structure
	fragments int     // total fragment occurrences folded in

	// Mapped (out-of-core) state: the class's stored entries and posting
	// list live as delta+varint blocks inside the file mapping, decoded
	// on demand. When mapped is set the heap structures above
	// (trie/vp/rt/postings) are nil.
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
// fresh slice per call — hot paths use PostingCount/AppendPostings.
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

// Fragments returns the number of fragment occurrences inserted.
func (c *Class) Fragments() int { return c.fragments }

// Index is the fragment-based index over one graph database.
type Index struct {
	opts    Options
	classes map[string]*Class
	list    []*Class
	dbSize  int
	// fingerprint identifies the exact graph set the index was built
	// over (graph.Fingerprint).
	fingerprint uint64
	// memo caches canonical skeleton codes so structurally identical
	// fragments — the overwhelming majority of enumerated fragments — are
	// canonicalized once, at build time and at query time alike.
	memo *canon.Memo
	// fps holds one prescreen fingerprint per graph (see fingerprint.go);
	// nil on an index loaded from an image without the fingerprint
	// section, until EnsureFingerprints recomputes them.
	fps []GraphFP

	// mapping backs an out-of-core index opened with OpenMapped; nil for
	// a heap index. mappedPath remembers the backing file.
	mapping    *mmapio.Mapping
	mappedPath string
}

// Classes returns all classes ordered by ID.
func (x *Index) Classes() []*Class { return x.list }

// Lookup returns the class for a structure key, or nil.
func (x *Index) Lookup(key string) *Class { return x.classes[key] }

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
		classes: make(map[string]*Class, len(features)),
		memo:    canon.NewMemo(),
	}
	for _, f := range features {
		if f.Edges > opts.MaxFragmentEdges {
			continue
		}
		cg := f.Graph
		if cg == nil {
			cg = f.Code.Graph()
		}
		_, embs := canon.MinCodeUnlabeled(cg) // automorphisms of the canonical skeleton
		vOff := cg.N()
		if distance.IgnoresVertices(opts.Metric) {
			vOff = 0
		}
		c := newClass(len(x.list), f.Key, f.Code, cg, embs, vOff)
		if opts.Kind == TrieIndex {
			c.trie = trie.New(c.SeqLen())
		}
		x.classes[f.Key] = c
		x.list = append(x.list, c)
	}
	return x, nil
}

// newClass scaffolds class id over its canonical skeleton cg, whose
// automorphisms embs become the position permutations over the combined
// (vertex labels ++ edge labels) sequence. Per-class storage stays empty.
func newClass(id int, key string, code canon.Code, cg *graph.Graph, embs []canon.Embedding, vOff int) *Class {
	c := &Class{
		ID:        id,
		Key:       key,
		Code:      code,
		Structure: cg,
		NumV:      cg.N(),
		NumE:      cg.M(),
		vOff:      vOff,
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

// finalize builds the bulk-loaded per-class structures.
func (x *Index) finalize() {
	for _, c := range x.list {
		switch x.opts.Kind {
		case RTreeIndex:
			c.rt = rtree.BulkLoad(c.SeqLen(), c.rtEnt)
			c.rtEnt = nil
		case VPTreeIndex:
			items := make([]int32, len(c.vpSeq))
			for i := range items {
				items[i] = int32(i)
			}
			cc := c
			c.vp = vptree.Build(items, func(a, b int32) float64 {
				return cc.orbitDistance(cc.vpSeq[a], cc.vpSeq[b], x.opts.Metric)
			})
		}
	}
}

// canonicalVariant returns the lexicographically smallest automorphism
// variant of seq, the stored representative, in a slice of its own.
func (c *Class) canonicalVariant(seq []uint32) []uint32 {
	best := append([]uint32(nil), seq...)
	if len(c.perms) == 1 {
		return best // a lone automorphism is the identity
	}
	tmp := make([]uint32, len(seq))
	for _, p := range c.perms {
		for i, src := range p {
			tmp[i] = seq[src]
		}
		if lessSeq(tmp, best) {
			best, tmp = tmp, best
		}
	}
	return best
}

// Variants returns every distinct automorphism variant of seq, used to
// probe the class index with a query fragment. For a class with a single
// automorphism (the identity — the common case) the result aliases seq
// without copying; callers must not modify the returned slices.
func (c *Class) Variants(seq []uint32) [][]uint32 {
	if len(c.perms) == 1 {
		// A lone automorphism of the canonical structure is necessarily the
		// identity, so the only variant is seq itself.
		return [][]uint32{seq}
	}
	seen := map[string]bool{}
	var out [][]uint32
	tmp := make([]uint32, len(seq))
	for _, p := range c.perms {
		for i, src := range p {
			tmp[i] = seq[src]
		}
		k := seqKey(tmp)
		if !seen[k] {
			seen[k] = true
			out = append(out, append([]uint32(nil), tmp...))
		}
	}
	return out
}

// orbitDistance is the exact fragment distance between two stored
// sequences: min over automorphism variants of the per-position cost.
func (c *Class) orbitDistance(a, b []uint32, m distance.Metric) float64 {
	best := distance.Infinite
	tmp := make([]uint32, len(a))
	for _, p := range c.perms {
		for i, src := range p {
			tmp[i] = a[src]
		}
		d := 0.0
		for i := range tmp {
			d += c.positionCost(m, i, tmp[i], b[i])
			if d >= best {
				break
			}
		}
		if d < best {
			best = d
		}
	}
	return best
}

// positionCost prices substituting symbol a with b at sequence position i.
func (c *Class) positionCost(m distance.Metric, i int, a, b uint32) float64 {
	if i < c.vOff {
		return m.VertexCost(graph.VLabel(a), 0, graph.VLabel(b), 0)
	}
	return m.EdgeCost(graph.ELabel(a), 0, graph.ELabel(b), 0)
}

func lessSeq(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func sameSlice(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seqKey encodes a sequence as a byte string for dedup. All four bytes of
// every symbol are kept: truncating would silently collide symbols that
// differ only above the low 16 bits, merging distinct variants.
func seqKey(seq []uint32) string {
	b := make([]byte, len(seq)*4)
	for i, s := range seq {
		b[4*i] = byte(s)
		b[4*i+1] = byte(s >> 8)
		b[4*i+2] = byte(s >> 16)
		b[4*i+3] = byte(s >> 24)
	}
	return string(b)
}

// QueryFragment is one indexed fragment occurrence inside a query graph.
type QueryFragment struct {
	Class    *Class
	Edges    []int32 // query edge indices
	Vertices []int32 // query vertex indices (sorted)
	Seq      []uint32
	Vec      []float64
}

// FragmentScratch is the working memory of fragment enumeration: the
// enumerator's stacks, the current fragment's renumbering, and the slabs
// the returned QueryFragments are carved from. One scratch serves one
// goroutine, graph after graph; the zero value is ready.
type FragmentScratch struct {
	enum   graph.SubgraphEnumerator
	ren    graph.Renumbering
	sorted []int32 // the current fragment's edges, ascending

	out []QueryFragment
	i32 []int32
	u32 []uint32
	f64 []float64
}

// classify resolves the fragment of host made of edges (in that order:
// it fixes the renumbering, hence which canonical embedding comes first)
// to its class and first canonical embedding, leaving the renumbering in
// fs.ren. The class is nil when the skeleton is not indexed. Only a
// structure never seen before builds a Graph.
func (x *Index) classify(fs *FragmentScratch, host *graph.Graph, edges []int32) (*Class, canon.Embedding) {
	fs.ren.Reset(host, edges)
	e := x.memo.Lookup(len(fs.ren.Vertices), fs.ren.Ends)
	if e == nil {
		sub, _, _ := graph.Fragment{Host: host, Edges: edges}.Extract()
		e = x.memo.Entry(sub)
	}
	c := x.classes[e.Key]
	if c == nil {
		return nil, canon.Embedding{}
	}
	return c, e.Embs[0]
}

// QueryFragments enumerates the indexed fragments of q (Alg. 2 lines 3-4).
func (x *Index) QueryFragments(q *graph.Graph) []QueryFragment {
	return x.QueryFragmentsInto(q, new(FragmentScratch))
}

// QueryFragmentsInto is QueryFragments over reusable storage: the result
// and every slice in it belong to fs and are valid until its next use. A
// warmed-up call allocates nothing.
func (x *Index) QueryFragmentsInto(q *graph.Graph, fs *FragmentScratch) []QueryFragment {
	fs.out = fs.out[:0]
	fs.i32, fs.u32, fs.f64 = fs.i32[:0], fs.u32[:0], fs.f64[:0]
	fs.enum.Enumerate(q, x.opts.MaxFragmentEdges, func(edges []int32) bool {
		fs.sorted = append(fs.sorted[:0], edges...)
		slices.Sort(fs.sorted)
		c, emb := x.classify(fs, q, fs.sorted)
		if c == nil {
			return true
		}
		qf := QueryFragment{Class: c}
		fs.i32, qf.Edges = carve(fs.i32, fs.sorted)
		fs.i32, qf.Vertices = carve(fs.i32, fs.ren.Vertices)
		switch x.opts.Kind {
		case TrieIndex, VPTreeIndex:
			n := len(fs.u32)
			fs.u32 = appendFragmentSequence(fs.u32, q, fs.ren.Vertices, fs.sorted, c, emb)
			qf.Seq = fs.u32[n:len(fs.u32):len(fs.u32)]
		case RTreeIndex:
			n := len(fs.f64)
			fs.f64 = appendFragmentWeights(fs.f64, q, fs.ren.Vertices, fs.sorted, c, emb)
			qf.Vec = fs.f64[n:len(fs.f64):len(fs.f64)]
		}
		fs.out = append(fs.out, qf)
		return true
	})
	return fs.out
}

// carve appends vals to slab and returns the grown slab and the appended
// piece, capped so a later append through it cannot reach its neighbour.
// Pieces carved before a reallocation keep the old array alive and intact.
func carve(slab, vals []int32) (grown, piece []int32) {
	n := len(slab)
	slab = append(slab, vals...)
	return slab, slab[n:len(slab):len(slab)]
}

// appendFragmentSequence appends a fragment's labels along the class code
// order for one canonical embedding, read from the host through the
// renumbering classify left behind: verts are its host vertices ascending,
// edges its host edge indices in the order classify saw them.
func appendFragmentSequence(dst []uint32, host *graph.Graph, verts, edges []int32, c *Class, emb canon.Embedding) []uint32 {
	for k := 0; k < c.vOff; k++ {
		dst = append(dst, uint32(host.VLabelAt(int(verts[emb.Vertices[k]]))))
	}
	for t := 0; t < c.NumE; t++ {
		dst = append(dst, uint32(host.EdgeAt(int(edges[emb.Edges[t]])).Label))
	}
	return dst
}

// appendFragmentWeights is appendFragmentSequence for weights.
func appendFragmentWeights(dst []float64, host *graph.Graph, verts, edges []int32, c *Class, emb canon.Embedding) []float64 {
	for k := 0; k < c.vOff; k++ {
		dst = append(dst, host.VWeightAt(int(verts[emb.Vertices[k]])))
	}
	for t := 0; t < c.NumE; t++ {
		dst = append(dst, host.EdgeAt(int(edges[emb.Edges[t]])).Weight)
	}
	return dst
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

// RangeBuffer is the dedup and probe scratch shared by every
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

	useq []uint32  // flat storage of already-probed sequence variants
	vvec []float64 // R-tree probe variant

	mseq []uint32  // mapped scan: decoded stored sequence
	mvec []float64 // mapped scan: decoded stored vector
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
// per-class structures keep deleted graphs until compaction, so the
// range query is where they stop existing. A steady-state call allocates
// nothing beyond buffer growth.
func (x *Index) RangeQueryInto(qf QueryFragment, sigma float64, pl *PostingList, rb *RangeBuffer, tombs *Tombstones) {
	mRangeQueries.Inc()
	c := qf.Class
	pl.IDs = pl.IDs[:0]
	pl.Dists = pl.Dists[:0]
	rb.begin(x.dbSize)
	// Deferred so that a panic in a probe still leaves the bitmap zeroed
	// for the buffer's next query.
	defer rb.emit(pl)
	record := func(id int32, d float64) {
		if !tombs.Has(id) {
			rb.record(id, d)
		}
	}
	if c.mapped {
		x.mappedRange(c, qf, sigma, rb, record)
		return
	}
	switch x.opts.Kind {
	case TrieIndex:
		cost := func(pos int, a, b uint32) float64 { return c.positionCost(x.opts.Metric, pos, a, b) }
		probe := func(variant []uint32) {
			c.trie.Range(variant, sigma, cost, func(d float64, graphs []int32) bool {
				for _, id := range graphs {
					record(id, d)
				}
				return true
			})
		}
		if len(c.perms) == 1 {
			// A lone automorphism is the identity: probe seq directly.
			probe(qf.Seq)
			break
		}
		// Generate variants into flat scratch, skipping duplicates; the
		// handful of automorphisms (≤ 2n for cycles) makes the quadratic
		// dedup scan cheaper than any map.
		L := len(qf.Seq)
		rb.useq = rb.useq[:0]
		for _, p := range c.perms {
			base := len(rb.useq)
			for _, src := range p {
				rb.useq = append(rb.useq, qf.Seq[src])
			}
			variant := rb.useq[base : base+L]
			dup := false
			for off := 0; off < base && !dup; off += L {
				dup = sameSlice(rb.useq[off:off+L], variant)
			}
			if dup {
				rb.useq = rb.useq[:base]
				continue
			}
			probe(variant)
		}
	case VPTreeIndex:
		cc := c
		c.vp.Range(func(item int32) float64 {
			return cc.orbitDistance(qf.Seq, cc.vpSeq[item], x.opts.Metric)
		}, sigma, func(item int32, d float64) bool {
			record(c.vpIDs[item], d)
			return true
		})
	case RTreeIndex:
		if cap(rb.vvec) < len(qf.Vec) {
			rb.vvec = make([]float64, len(qf.Vec))
		}
		variant := rb.vvec[:len(qf.Vec)]
		for _, p := range c.perms {
			for i, src := range p {
				variant[i] = qf.Vec[src]
			}
			c.rt.SearchL1(variant, sigma, func(e rtree.Entry, d float64) bool {
				record(e.Data, d)
				return true
			})
		}
	}
}

// RangeQuery is RangeQueryInto with a freshly allocated map result, kept
// for tests and ad-hoc callers; the search hot path uses RangeQueryInto.
func (x *Index) RangeQuery(qf QueryFragment, sigma float64) map[int32]float64 {
	var pl PostingList
	var rb RangeBuffer
	x.RangeQueryInto(qf, sigma, &pl, &rb, nil)
	out := make(map[int32]float64, len(pl.IDs))
	for i, id := range pl.IDs {
		out[id] = pl.Dists[i]
	}
	return out
}

// Stats summarizes the index for reporting.
type Stats struct {
	Classes   int
	Fragments int
	Sequences int
	Postings  int
}

// Stats computes summary statistics.
func (x *Index) Stats() Stats {
	s := Stats{Classes: len(x.list)}
	for _, c := range x.list {
		s.Fragments += c.fragments
		s.Postings += c.PostingCount()
		if c.mapped {
			s.Sequences += c.entCount
			continue
		}
		if c.trie != nil {
			s.Sequences += c.trie.Sequences()
		}
		if c.vpSeq != nil {
			s.Sequences += len(c.vpSeq)
		}
		if c.rt != nil {
			s.Sequences += c.rt.Len()
		}
	}
	return s
}
