// The query side of the index (Algorithm 2 lines 3-4). A class is present
// in a query exactly when its skeleton embeds there, and its fragments are
// the edge sets the embeddings cover. So where a build enumerates and
// classifies every connected edge set (Index.each), a query walks each
// class code's embeddings: to the first to find its classes, through all
// to materialize a class the planner expands. The embeddings onto one edge
// set differ by a skeleton automorphism, so the walk keeps the one whose
// tuple→edge array is least under the class's automorphisms.

package index

import (
	"slices"

	"pis/internal/canon"
	"pis/internal/graph"
)

// QueryFragment is one indexed fragment occurrence inside a query graph.
type QueryFragment struct {
	Class    *Class
	Edges    []int32 // query edge indices (sorted)
	Vertices []int32 // query vertex indices (sorted)
	// Key holds the fragment's labels, or the bits of its weights under a
	// weight metric, along the class code's vertex and edge order.
	Key []uint64
}

// FragmentScratch is the working memory of finding fragments: a build's
// enumerator stacks and the placement of its fragment at every size, a
// query's embedding walk, and the slabs the returned QueryFragments are
// carved from. One scratch serves one goroutine, graph after graph; the
// zero value is ready.
type FragmentScratch struct {
	enum graph.SubgraphEnumerator
	cl   canon.Classifier[Class]
	w    walker

	out []QueryFragment
	i32 []int32
	u64 []uint64
}

// Reset releases the fragments fs holds, keeping their storage.
func (fs *FragmentScratch) Reset() {
	fs.out, fs.i32, fs.u64 = fs.out[:0], fs.i32[:0], fs.u64[:0]
}

// QueryFragments returns every indexed fragment of q, class by class.
func (x *Index) QueryFragments(q *graph.Graph) []QueryFragment {
	return x.QueryFragmentsInto(q, new(FragmentScratch))
}

// QueryFragmentsInto is QueryFragments over reusable storage: the result
// and every slice in it belong to fs and are valid until its next use. A
// warmed-up call allocates nothing.
func (x *Index) QueryFragmentsInto(q *graph.Graph, fs *FragmentScratch) []QueryFragment {
	fs.Reset()
	for _, c := range x.list {
		x.ClassFragments(q, c, fs)
	}
	return fs.out
}

// QueryClasses appends to dst the classes of q's fragments, by class ID.
func (x *Index) QueryClasses(dst []*Class, q *graph.Graph, fs *FragmentScratch) []*Class {
	for _, c := range x.list {
		if !fs.w.run(x, q, c, nil) {
			dst = append(dst, c)
		}
	}
	return dst
}

// ClassFragments appends the fragments of class c in q to those fs holds
// and returns them; they stay valid until fs.Reset.
func (x *Index) ClassFragments(q *graph.Graph, c *Class, fs *FragmentScratch) []QueryFragment {
	n := len(fs.out)
	fs.w.run(x, q, c, fs)
	return fs.out[n:len(fs.out):len(fs.out)]
}

// carve appends vals to slab and returns the grown slab and the appended
// piece, sorted and capped so a later append through it cannot reach its
// neighbour. Pieces carved before a reallocation keep the old array alive
// and intact.
func carve(slab, vals []int32) (grown, piece []int32) {
	n := len(slab)
	slab = append(slab, vals...)
	piece = slab[n:len(slab):len(slab)]
	slices.Sort(piece)
	return slab, piece
}

// walker is the state of one walk of a class skeleton into a query.
type walker struct {
	x               *Index
	q               *graph.Graph
	c               *Class
	fs              *FragmentScratch // where fragments go; nil stops at the first embedding
	off, nbrV, nbrE []int32          // the query's adjacency (graph.Graph.Adjacency)
	mask, cmask     []uint8          // cycle lengths per query edge, per code tuple
	assign, edges   []int32          // DFS id → query vertex, tuple → query edge
	used            []bool           // query vertices holding a DFS id; all false between walks
}

// run walks class c's embeddings into q, emitting one fragment per edge
// set into fs, or with fs nil stopping at the first; false means it did.
func (w *walker) run(x *Index, q *graph.Graph, c *Class, fs *FragmentScratch) bool {
	if c.NumV > q.N() || c.NumE > q.M() {
		return true
	}
	w.x, w.q, w.c, w.fs = x, q, c, fs
	w.off, w.nbrV, w.nbrE = q.Adjacency()
	// A skeleton is far too small to exhaust the annotation budget: its
	// masks are exact.
	w.mask, w.cmask = q.Invariants().EdgeMasks(), c.Structure.Invariants().EdgeMasks()
	w.assign = slices.Grow(w.assign[:0], c.NumV)[:c.NumV]
	w.edges = slices.Grow(w.edges[:0], c.NumE)[:c.NumE]
	if len(w.used) < q.N() {
		w.used = make([]bool, q.N())
	}
	return w.walk(-1)
}

// walk matches the code from tuple t on, t = -1 placing DFS id 0 on any
// query vertex: a forward tuple places its new DFS id on a neighbour of
// its first one's image, a backward one needs the edge between its two
// images, and an image edge must lie on every cycle length its tuple does.
// false stops the walk.
func (w *walker) walk(t int) bool {
	if t == len(w.c.Code) {
		fs := w.fs
		if fs == nil {
			return false
		}
		if w.canonical() {
			qf, n := QueryFragment{Class: w.c}, len(fs.u64)
			fs.u64 = w.x.appendKey(fs.u64, w.q, w.c, w.assign, w.edges)
			qf.Key = fs.u64[n:len(fs.u64):len(fs.u64)]
			fs.i32, qf.Edges = carve(fs.i32, w.edges)
			fs.i32, qf.Vertices = carve(fs.i32, w.assign)
			fs.out = append(fs.out, qf)
		}
		return true
	}
	var tu canon.Tuple // at the root, tu.J = 0 is the DFS id placed
	lo, hi := int32(0), int32(w.q.N())
	if t >= 0 {
		tu = w.c.Code[t]
		lo, hi = w.off[w.assign[tu.I]], w.off[w.assign[tu.I]+1]
	}
	for s := lo; s < hi; s++ {
		hv := s
		if t >= 0 {
			if hv = w.nbrV[s]; !tu.Forward() && hv != w.assign[tu.J] || w.cmask[t]&^w.mask[w.nbrE[s]] != 0 {
				continue
			}
			if w.edges[t] = w.nbrE[s]; !tu.Forward() {
				return w.walk(t + 1)
			}
		}
		if w.used[hv] || w.off[hv+1]-w.off[hv] < int32(w.c.Structure.Degree(int(tu.J))) {
			continue
		}
		w.assign[tu.J], w.used[hv] = hv, true
		more := w.walk(t + 1)
		w.used[hv] = false
		if !more {
			return false
		}
	}
	return true
}

// canonical reports whether no automorphism maps the embedding the walk
// holds to a smaller tuple→edge array. A one-edge skeleton's swap fixes
// its edge: it keeps the embedding with the lower first vertex.
func (w *walker) canonical() bool {
	c, e := w.c, w.edges
	if c.NumE == 1 {
		return w.assign[0] < w.assign[1]
	}
	for _, p := range c.perms {
		for t, src := range p[c.vOff:] {
			if v := e[src-c.vOff]; v != e[t] {
				if v < e[t] {
					return false
				}
				break
			}
		}
	}
	return true
}
