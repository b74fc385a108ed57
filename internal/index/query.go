// The index's one fragment finder, for builds (§4) and queries (Algorithm
// 2 lines 3-4) alike. A class is present in a graph exactly when its
// skeleton embeds there, and its fragments are the edge sets the
// embeddings cover. Every prefix of a minimum DFS code is itself one, so
// the class codes share their prefixes and the class directory is walked
// as a trie over code tuples (plant): a build walks the whole trie per
// graph and emits at every class node; a query walks one class's
// root-to-node path, with that class's own degree bounds and cycle masks,
// to the first embedding to find its classes, through all of them to
// materialize a class the planner expands. The embeddings onto one edge
// set differ by a skeleton automorphism, and a class's symmetry-breaking
// conditions pass exactly one of them.

package index

import (
	"math"
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

// FragmentScratch is the working memory of finding fragments: the walk's
// embedding, and the slabs the returned QueryFragments are carved from.
// One scratch serves one goroutine, graph after graph; the zero value is
// ready.
type FragmentScratch struct {
	w walker

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
		if !fs.w.run(x, q, c, nil, nil) {
			dst = append(dst, c)
		}
	}
	return dst
}

// ClassFragments appends the fragments of class c in q to those fs holds
// and returns them; they stay valid until fs.Reset.
func (x *Index) ClassFragments(q *graph.Graph, c *Class, fs *FragmentScratch) []QueryFragment {
	n := len(fs.out)
	fs.w.run(x, q, c, fs, nil)
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

// node is one code prefix: the tuple extending its parent's prefix, and
// the class whose code ends here, if any.
type node struct {
	tu canon.Tuple // a root's, J = 0, places DFS id 0
	// deg is the least degree a class below gives DFS id tu.J: a graph
	// vertex with fewer neighbours cannot play it.
	deg int
	// conds are the symmetry-breaking conditions (a, b) with b = tu.J that
	// every class below shares: none emits DFS id a placed above tu.J.
	conds [][2]int32
	class *Class
	kids  []*node
}

// plant files x's classes into the trie of their codes and gives each
// class its own path, a one-class trie holding the degrees of that class
// alone. Both are read-only afterwards.
func (x *Index) plant() {
	x.trie = &node{deg: math.MaxInt}
	for _, c := range x.list {
		c.path = &node{deg: c.Structure.Degree(0)}
		n, p := x.trie, c.path
		n.deg = min(n.deg, p.deg)
		for _, tu := range c.Code {
			deg := math.MaxInt // a backward tuple places no DFS id
			if tu.Forward() {
				deg = c.Structure.Degree(int(tu.J))
			}
			i := slices.IndexFunc(n.kids, func(k *node) bool { return k.tu == tu })
			if i < 0 {
				i = len(n.kids)
				n.kids = append(n.kids, &node{tu: tu, deg: deg, conds: placed(c.conds, tu)})
			}
			n = n.kids[i]
			n.deg = min(n.deg, deg)
			n.conds = slices.DeleteFunc(n.conds, func(cd [2]int32) bool { return !slices.Contains(c.conds, cd) })
			p.kids = []*node{{tu: tu, deg: deg, conds: placed(c.conds, tu)}}
			p = p.kids[0]
		}
		n.class, p.class = c, c
	}
}

// placed returns the conds whose later DFS id tuple tu places.
func placed(conds [][2]int32, tu canon.Tuple) [][2]int32 {
	return slices.DeleteFunc(slices.Clone(conds), func(p [2]int32) bool { return !tu.Forward() || p[1] != tu.J })
}

// symmetryConditions returns pairs (a, b) that, of the embeddings of a
// class skeleton onto one edge set, exactly one satisfies by placing DFS id
// a on a lower vertex than DFS id b (Grochow & Kellis, "Network Motif
// Discovery Using Subgraph Enumeration and Symmetry-Breaking", RECOMB
// 2007). auts are the skeleton's automorphisms, canon.MinCode's embeddings
// of the code graph into itself. Down the stabilizer chain, the least DFS
// id an automorphism still moves must take the least vertex of its orbit.
func symmetryConditions(auts []canon.Embedding) (conds [][2]int32) {
	for len(auts) > 1 {
		v := int32(0)
		for !slices.ContainsFunc(auts, func(a canon.Embedding) bool { return a.Vertices[v] != v }) {
			v++
		}
		var fixing []canon.Embedding
		for _, a := range auts {
			cond := [2]int32{v, a.Vertices[v]}
			switch {
			case cond[1] == v:
				fixing = append(fixing, a)
			case !slices.Contains(conds, cond):
				conds = append(conds, cond)
			}
		}
		auts = fixing
	}
	return conds
}

// walker is the state of one walk into a graph.
type walker struct {
	x   *Index
	g   *graph.Graph
	fs  *FragmentScratch // where a query's fragments go
	ops *graphOps        // where a build's go; with fs nil too, the walk stops at the first class found

	off, nbrV, nbrE []int32 // the graph's adjacency (graph.Graph.Adjacency)
	// mask and cmask hold the cycle lengths per graph edge and per code
	// tuple, on a class path only: a build does not pay for the graph's
	// invariants.
	mask, cmask   []uint8
	assign, edges []int32 // DFS id → graph vertex, tuple → graph edge
	used          []bool  // graph vertices holding a DFS id; all false between walks
}

// run walks g: class c's path, or with c nil the whole trie. It emits one
// fragment per class and edge set into fs or ops, or with both nil stops at
// the first class found; false means it did.
func (w *walker) run(x *Index, g *graph.Graph, c *Class, fs *FragmentScratch, ops *graphOps) bool {
	root, mask, cmask := x.trie, []uint8(nil), []uint8(nil)
	if c != nil {
		if c.NumV > g.N() || c.NumE > g.M() {
			return true
		}
		// A skeleton is far too small to exhaust the annotation budget: its
		// masks are exact.
		root, mask, cmask = c.path, g.Invariants().EdgeMasks(), c.Structure.Invariants().EdgeMasks()
	}
	w.x, w.g, w.fs, w.ops, w.mask, w.cmask = x, g, fs, ops, mask, cmask
	w.off, w.nbrV, w.nbrE = g.Adjacency()
	// An embedding places each DFS id on its own vertex and each tuple on
	// its own edge, so no walk goes deeper than the graph is large.
	w.assign = slices.Grow(w.assign[:0], g.N())[:g.N()]
	w.edges = slices.Grow(w.edges[:0], g.M())[:g.M()]
	if len(w.used) < g.N() {
		w.used = make([]bool, g.N())
	}
	for v := range int32(g.N()) {
		if int(w.off[v+1]-w.off[v]) < root.deg {
			continue
		}
		w.assign[0], w.used[v] = v, true
		more := w.walk(root, 0)
		w.used[v] = false
		if !more {
			return false
		}
	}
	return true
}

// walk goes on from the embedding of node n's prefix, t tuples long, that
// the walker holds: it emits the embedding when n is a class, then tries
// each child's tuple. A forward tuple places its new DFS id on a neighbour
// of its first one's vertex, a backward one needs the edge between its two
// vertices, and on a class path a graph edge must lie on every cycle
// length its tuple does. false stops the walk.
func (w *walker) walk(n *node, t int) bool {
	if n.class != nil && !w.emit(n.class) {
		return false
	}
	for _, k := range n.kids {
		tu := k.tu
		fwd, a := tu.Forward(), w.assign[tu.I]
		for s, hi := w.off[a], w.off[a+1]; s < hi; s++ {
			v, e := w.nbrV[s], w.nbrE[s]
			if fwd && (w.used[v] || int(w.off[v+1]-w.off[v]) < k.deg || w.breaks(k, v)) ||
				!fwd && v != w.assign[tu.J] || w.cmask != nil && w.cmask[t]&^w.mask[e] != 0 {
				continue
			}
			w.edges[t] = e
			if !fwd {
				if !w.walk(k, t+1) {
					return false
				}
				break
			}
			w.assign[tu.J], w.used[v] = v, true
			more := w.walk(k, t+1)
			w.used[v] = false
			if !more {
				return false
			}
		}
	}
	return true
}

// breaks reports whether placing k's DFS id on vertex v fails one of k's
// conds, so that no class below emits the embedding.
func (w *walker) breaks(k *node, v int32) bool {
	for _, p := range k.conds {
		if w.assign[p[0]] > v {
			return true
		}
	}
	return false
}

// emit hands on the embedding of class c the walker holds, if it is the
// one c's symmetry-breaking conditions pass. false stops the walk.
func (w *walker) emit(c *Class) bool {
	if w.fs == nil && w.ops == nil {
		return false
	}
	for _, p := range c.conds {
		if w.assign[p[0]] > w.assign[p[1]] {
			return true
		}
	}
	verts, edges := w.assign[:c.NumV], w.edges[:c.NumE]
	if ops := w.ops; ops != nil {
		ops.classes = append(ops.classes, c)
		ops.keys = w.x.appendStoredKey(ops.keys, w.g, c, verts, edges)
		return true
	}
	fs := w.fs
	qf, n := QueryFragment{Class: c}, len(fs.u64)
	fs.u64 = w.x.appendKey(fs.u64, w.g, c, verts, edges)
	qf.Key = fs.u64[n:len(fs.u64):len(fs.u64)]
	fs.i32, qf.Edges = carve(fs.i32, edges)
	fs.i32, qf.Vertices = carve(fs.i32, verts)
	fs.out = append(fs.out, qf)
	return true
}
