// gSpan-style pattern-growth mining (Yan & Han, ICDM'02 — reference [15]
// of the PIS paper): patterns grow edge by edge along rightmost-path
// extensions, keeping embedding lists per pattern, and duplicate growth
// paths are pruned with the minimum-DFS-code test. The tests check it
// against enumerating and counting every connected subgraph.
//
// Embeddings allocate nothing of their own: an extension keeps its
// embeddings in one flat slab of (parent, host edge) pairs, where parent
// indexes the slab of the pattern it grew from, and each graph's
// projection is a range of that slab. Growth walks a stack of these
// slabs, root first, to place an embedding in its host.

package mining

import (
	"slices"

	"pis/internal/canon"
	"pis/internal/graph"
)

// GSpanOptions configures pattern-growth mining.
type GSpanOptions struct {
	// MinSupport is the absolute minimum number of graphs a pattern must
	// occur in.
	MinSupport int
	// MaxEdges bounds pattern size.
	MaxEdges int
	// Skeleton mines label-free structures (what the PIS index wants).
	// When false, vertex and edge labels distinguish patterns.
	Skeleton bool
}

// gEmbedding is one occurrence of a pattern in a host graph: the host edge
// matched to the pattern's newest code tuple and the index of the
// embedding of the code prefix in the parent's slab. A root (single-edge)
// embedding has no parent; its parent field holds the orientation of the
// root edge instead, 1 when the host edge's V plays DFS id 0 — for
// label-symmetric root edges both orientations are distinct embeddings
// and both must be grown, or support is undercounted.
type gEmbedding struct {
	parent, edge int32
}

// projection is the embedding range [lo, hi) of one graph in a slab.
type projection struct {
	gid, lo, hi int32
}

// extension is a candidate pattern: the tuple it appends to its parent's
// code and, when that code is minimal, its embeddings by graph.
type extension struct {
	tuple canon.Tuple
	min   bool
	embs  []gEmbedding
	projs []projection
}

// add appends an embedding in graph gid; graphs arrive in ascending order.
func (x *extension) add(gid, parent, edge int32) {
	if n := len(x.projs); n == 0 || x.projs[n-1].gid != gid {
		x.projs = append(x.projs, projection{gid: gid, lo: int32(len(x.embs))})
	}
	x.embs = append(x.embs, gEmbedding{parent: parent, edge: edge})
	x.projs[len(x.projs)-1].hi = int32(len(x.embs))
}

// gsMiner carries shared state: the hosts, the slabs of the patterns on
// the current growth path (root first), and materialize's scratch.
type gsMiner struct {
	hosts []*graph.Graph
	opts  GSpanOptions
	out   []Feature
	slabs [][]gEmbedding

	// The host vertex of each DFS id and the host edge of each tuple of
	// the embedding last materialized; a host edge or vertex it uses is
	// stamped with gen.
	verts, edges     []int32
	edgeGen, vertGen []int
	gen              int
}

// GSpan mines frequent (sub)graph patterns by pattern growth. Results are
// sorted like Mine's: size desc, support asc, key.
func GSpan(db []*graph.Graph, opts GSpanOptions) []Feature {
	opts.MinSupport = max(opts.MinSupport, 1)
	opts.MaxEdges = max(opts.MaxEdges, 1)
	m := &gsMiner{
		hosts: make([]*graph.Graph, len(db)),
		opts:  opts,
		verts: make([]int32, opts.MaxEdges+1),
		edges: make([]int32, opts.MaxEdges),
	}
	maxN, maxM := 0, 0
	for i, g := range db {
		if opts.Skeleton {
			g = g.Skeleton()
		}
		m.hosts[i] = g
		maxN, maxM = max(maxN, g.N()), max(maxM, g.M())
	}
	m.vertGen, m.edgeGen = make([]int, maxN), make([]int, maxM)

	// Seed: all single-edge patterns. The endpoint carrying the smaller
	// label plays DFS id 0; a symmetric edge embeds both ways.
	seeds := map[canon.Tuple]*extension{}
	for gid, g := range m.hosts {
		for e := range g.M() {
			ed := g.EdgeAt(e)
			lu, lv, flip := g.VLabelAt(int(ed.U)), g.VLabelAt(int(ed.V)), int32(0)
			if lu > lv {
				lu, lv, flip = lv, lu, 1
			}
			t := canon.Tuple{I: 0, J: 1, LI: lu, LE: ed.Label, LJ: lv}
			x := seeds[t]
			if x == nil {
				x = &extension{tuple: t, min: true}
				seeds[t] = x
			}
			x.add(int32(gid), flip, int32(e))
			if lu == lv {
				x.add(int32(gid), 1, int32(e))
			}
		}
	}
	m.growAll(nil, seeds)
	return postprocess(m.out)
}

// growAll grows, in DFS-code order, every frequent extension of code.
func (m *gsMiner) growAll(code canon.Code, exts map[canon.Tuple]*extension) {
	var ordered []*extension
	for _, x := range exts {
		if len(x.projs) >= m.opts.MinSupport {
			ordered = append(ordered, x)
		}
	}
	clear(exts) // the infrequent extensions' embeddings go now
	slices.SortFunc(ordered, func(a, b *extension) int { return a.tuple.Compare(b.tuple) })
	for _, x := range ordered {
		m.grow(append(code[:len(code):len(code)], x.tuple), x)
		*x = extension{} // the subtree is mined: let its embeddings go
	}
}

// isMin reports whether code is the minimum DFS code of the pattern it
// describes; a pattern is grown only from that code.
func isMin(code canon.Code) bool {
	minCode, _ := canon.MinCode(code.Graph())
	return minCode.Compare(code) == 0
}

// grow reports the pattern of a minimum code, whose embeddings x holds,
// and recurses into its frequent rightmost-path extensions whose codes
// are minimal too.
func (m *gsMiner) grow(code canon.Code, x *extension) {
	m.out = append(m.out, Feature{
		Key:     code.Key(),
		Code:    code,
		Graph:   code.Graph(),
		Edges:   len(code),
		Support: len(x.projs),
	})
	if len(code) >= m.opts.MaxEdges {
		return
	}
	m.slabs = append(m.slabs, x.embs)
	defer func() { m.slabs = m.slabs[:len(m.slabs)-1] }()

	// The rightmost path of the code: dfs ids from root to rightmost.
	rmpath := rightmostPath(code)
	last := rmpath[len(rmpath)-1]
	nVerts := int32(code.VertexCount())

	// An extension whose code is not minimal is (or will be) reached
	// from its minimum code: its embeddings, most of those a pattern
	// has, are not collected.
	exts := map[canon.Tuple]*extension{}
	record := func(g *graph.Graph, i, gid int32, id, j, u, e, w int32) {
		t := canon.Tuple{I: id, J: j, LI: g.VLabelAt(int(u)), LE: g.EdgeAt(int(e)).Label, LJ: g.VLabelAt(int(w))}
		c := exts[t]
		if c == nil {
			c = &extension{tuple: t, min: isMin(append(code[:len(code):len(code)], t))}
			exts[t] = c
		}
		if c.min {
			c.add(gid, i, e)
		}
	}

	for _, p := range x.projs {
		g := m.hosts[p.gid]
		for i := p.lo; i < p.hi; i++ {
			m.materialize(code, i, g)
			rmHost := m.verts[last]
			// Backward extensions: rightmost vertex -> earlier rmpath vertex.
			for _, e := range g.IncidentEdges(int(rmHost)) {
				if m.edgeGen[e] == m.gen {
					continue
				}
				w := g.Other(int(e), rmHost)
				for _, id := range rmpath[:len(rmpath)-1] {
					if m.verts[id] == w {
						record(g, i, p.gid, last, id, rmHost, e, w)
					}
				}
			}
			// Forward extensions: any rmpath vertex -> new vertex.
			for _, id := range rmpath {
				u := m.verts[id]
				for _, e := range g.IncidentEdges(int(u)) {
					if w := g.Other(int(e), u); m.edgeGen[e] != m.gen && m.vertGen[w] != m.gen {
						record(g, i, p.gid, id, nVerts, u, e, w)
					}
				}
			}
		}
	}
	m.growAll(code, exts)
}

// rightmostPath recovers the rightmost path (dfs ids, root first) of a
// DFS code: follow forward edges backward from the last discovered
// vertex. A vertex is discovered before any vertex it discovers, so one
// backward pass over the code meets the path's edges in order.
func rightmostPath(code canon.Code) []int32 {
	path := []int32{int32(code.VertexCount() - 1)}
	for i := len(code) - 1; i >= 0; i-- {
		if t := code[i]; t.Forward() && t.J == path[0] {
			path = slices.Insert(path, 0, t.I)
		}
	}
	return path
}

// materialize places embedding i of the top slab in its host: it follows
// the parent indices down the slab stack to collect the host edges in
// code order, then fills m.verts (the root's orientation pins the first
// edge; later forward edges inherit it) and stamps the used host edges
// and vertices with a fresh generation.
func (m *gsMiner) materialize(code canon.Code, i int32, g *graph.Graph) {
	for d := len(code) - 1; d >= 0; d-- {
		emb := m.slabs[d][i]
		m.edges[d], i = emb.edge, emb.parent
	}
	m.gen++
	for d, t := range code {
		e := m.edges[d]
		m.edgeGen[e] = m.gen
		switch {
		case d == 0:
			ed := g.EdgeAt(int(e))
			u, v := ed.U, ed.V
			if i == 1 { // i is now the root's orientation
				u, v = v, u
			}
			m.verts[t.I], m.verts[t.J] = u, v
			m.vertGen[u], m.vertGen[v] = m.gen, m.gen
		case t.Forward():
			// t.I is already placed; t.J is the other endpoint.
			w := g.Other(int(e), m.verts[t.I])
			m.verts[t.J] = w
			m.vertGen[w] = m.gen
		}
	}
}
