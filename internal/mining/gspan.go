// gSpan-style pattern-growth mining (Yan & Han, ICDM'02 — reference [15]
// of the PIS paper): patterns grow edge by edge along rightmost-path
// extensions, keeping embedding lists per pattern, and duplicate growth
// paths are pruned with the minimum-DFS-code test. The tests check it
// against enumerating and counting every connected subgraph.

package mining

import (
	"sort"

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

// gEmbedding is one occurrence of the current pattern in a host graph,
// stored as a chain: the host edge matched to the newest code tuple plus a
// pointer to the embedding of the code prefix. flip records the
// orientation of the root (first) edge — for label-symmetric first edges
// both orientations are distinct embeddings and both must be grown, or
// support is undercounted.
type gEmbedding struct {
	prev *gEmbedding
	edge int32
	flip bool
}

// projection is the embedding list of one pattern within one graph.
type projection struct {
	gid  int32
	embs []*gEmbedding
}

// gsMiner carries shared state.
type gsMiner struct {
	db   []*graph.Graph
	opts GSpanOptions
	out  []Feature
}

// GSpan mines frequent (sub)graph patterns by pattern growth. Results are
// sorted like Mine's: size desc, support asc, key.
func GSpan(db []*graph.Graph, opts GSpanOptions) []Feature {
	if opts.MinSupport < 1 {
		opts.MinSupport = 1
	}
	if opts.MaxEdges < 1 {
		opts.MaxEdges = 1
	}
	m := &gsMiner{db: db, opts: opts}

	hosts := make([]*graph.Graph, len(db))
	for i, g := range db {
		if opts.Skeleton {
			hosts[i] = g.Skeleton()
		} else {
			hosts[i] = g
		}
	}

	// Seed: all frequent single-edge patterns.
	type seed struct {
		tuple canon.Tuple
		projs []projection
	}
	seeds := map[canon.Tuple]*seed{}
	for gid, g := range hosts {
		for e := 0; e < g.M(); e++ {
			ed := g.EdgeAt(e)
			lu, lv := g.VLabelAt(int(ed.U)), g.VLabelAt(int(ed.V))
			if lu > lv {
				lu, lv = lv, lu
			}
			t := canon.Tuple{I: 0, J: 1, LI: lu, LE: ed.Label, LJ: lv}
			s := seeds[t]
			if s == nil {
				s = &seed{tuple: t}
				seeds[t] = s
			}
			if n := len(s.projs); n == 0 || s.projs[n-1].gid != int32(gid) {
				s.projs = append(s.projs, projection{gid: int32(gid)})
			}
			p := &s.projs[len(s.projs)-1]
			if g.VLabelAt(int(ed.U)) == g.VLabelAt(int(ed.V)) {
				// Symmetric edge: both orientations are embeddings.
				p.embs = append(p.embs,
					&gEmbedding{edge: int32(e)},
					&gEmbedding{edge: int32(e), flip: true})
			} else {
				// The endpoint carrying the smaller label plays DFS id 0.
				p.embs = append(p.embs,
					&gEmbedding{edge: int32(e), flip: g.VLabelAt(int(ed.U)) != lu})
			}
		}
	}
	var ordered []*seed
	for _, s := range seeds {
		if len(s.projs) >= opts.MinSupport {
			ordered = append(ordered, s)
		}
	}
	sort.Slice(ordered, func(i, j int) bool {
		return ordered[i].tuple.Compare(ordered[j].tuple) < 0
	})
	for _, s := range ordered {
		m.grow(hosts, canon.Code{s.tuple}, s.projs)
	}

	sort.Slice(m.out, func(i, j int) bool {
		if m.out[i].Edges != m.out[j].Edges {
			return m.out[i].Edges > m.out[j].Edges
		}
		if m.out[i].Support != m.out[j].Support {
			return m.out[i].Support < m.out[j].Support
		}
		return m.out[i].Key < m.out[j].Key
	})
	return m.out
}

// isMin reports whether code is the minimum DFS code of the pattern it
// describes; a pattern is grown only from that code.
func isMin(code canon.Code) bool {
	minCode, _ := canon.MinCode(code.Graph())
	return minCode.Compare(code) == 0
}

// grow reports the pattern of a minimum code and recurses into its
// frequent rightmost-path extensions whose codes are minimal too.
func (m *gsMiner) grow(hosts []*graph.Graph, code canon.Code, projs []projection) {
	m.out = append(m.out, Feature{
		Key:     code.Key(),
		Code:    code,
		Graph:   code.Graph(),
		Edges:   len(code),
		Support: len(projs),
	})
	if len(code) >= m.opts.MaxEdges {
		return
	}

	// The rightmost path of the code: dfs ids from root to rightmost.
	rmpath := rightmostPath(code)
	nVerts := code.VertexCount()

	// An extension whose code is not minimal is (or will be) reached
	// from its minimum code: its embeddings, most of those a pattern
	// has, are not collected.
	type extension struct {
		tuple canon.Tuple
		min   bool
		projs []projection
	}
	exts := map[canon.Tuple]*extension{}
	record := func(t canon.Tuple, gid int32, emb *gEmbedding) {
		x := exts[t]
		if x == nil {
			x = &extension{tuple: t, min: isMin(append(code[:len(code):len(code)], t))}
			exts[t] = x
		}
		if !x.min {
			return
		}
		if n := len(x.projs); n == 0 || x.projs[n-1].gid != gid {
			x.projs = append(x.projs, projection{gid: gid})
		}
		p := &x.projs[len(x.projs)-1]
		p.embs = append(p.embs, emb)
	}

	for _, proj := range projs {
		g := hosts[proj.gid]
		for _, emb := range proj.embs {
			verts, usedEdge, usedVert := materialize(code, emb, g)
			rmHost := verts[rmpath[len(rmpath)-1]]
			// Backward extensions: rightmost vertex -> earlier rmpath vertex.
			for _, e := range g.IncidentEdges(int(rmHost)) {
				if usedEdge[e] {
					continue
				}
				w := g.Other(int(e), rmHost)
				for _, id := range rmpath[:len(rmpath)-1] {
					if verts[id] == w {
						t := canon.Tuple{
							I: rmpath[len(rmpath)-1], J: id,
							LI: g.VLabelAt(int(rmHost)),
							LE: g.EdgeAt(int(e)).Label,
							LJ: g.VLabelAt(int(w)),
						}
						record(t, proj.gid, &gEmbedding{prev: emb, edge: e})
					}
				}
			}
			// Forward extensions: any rmpath vertex -> new vertex.
			for _, id := range rmpath {
				u := verts[id]
				for _, e := range g.IncidentEdges(int(u)) {
					if usedEdge[e] {
						continue
					}
					w := g.Other(int(e), u)
					if usedVert[w] {
						continue
					}
					t := canon.Tuple{
						I: id, J: int32(nVerts),
						LI: g.VLabelAt(int(u)),
						LE: g.EdgeAt(int(e)).Label,
						LJ: g.VLabelAt(int(w)),
					}
					record(t, proj.gid, &gEmbedding{prev: emb, edge: e})
				}
			}
		}
	}

	var ordered []*extension
	for _, x := range exts {
		if len(x.projs) >= m.opts.MinSupport {
			ordered = append(ordered, x)
		}
	}
	sort.Slice(ordered, func(i, j int) bool {
		return ordered[i].tuple.Compare(ordered[j].tuple) < 0
	})
	for _, x := range ordered {
		m.grow(hosts, append(code[:len(code):len(code)], x.tuple), x.projs)
		x.projs = nil // the subtree is mined: let its embeddings go
	}
}

// rightmostPath recovers the rightmost path (dfs ids, root first) of a
// DFS code: follow forward edges backward from the last discovered vertex.
func rightmostPath(code canon.Code) []int32 {
	last := int32(code.VertexCount() - 1)
	var rev []int32
	for cur := last; ; {
		rev = append(rev, cur)
		if cur == 0 {
			break
		}
		// the forward edge discovering cur
		found := false
		for i := len(code) - 1; i >= 0; i-- {
			if code[i].Forward() && code[i].J == cur {
				cur = code[i].I
				found = true
				break
			}
		}
		if !found {
			break
		}
	}
	// reverse
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// materialize walks an embedding chain, returning the host vertex for each
// dfs id plus the used host edge/vertex sets. The root's flip flag pins
// the orientation of the first edge; later forward edges inherit it.
func materialize(code canon.Code, emb *gEmbedding, g *graph.Graph) (verts []int32, usedEdge map[int32]bool, usedVert map[int32]bool) {
	// Collect host edges in code order (the chain is newest-first).
	edges := make([]int32, len(code))
	cur := emb
	for i := len(code) - 1; i >= 0; i-- {
		edges[i] = cur.edge
		if i == 0 && cur.prev != nil {
			panic("mining: embedding chain longer than code")
		}
		if i > 0 {
			cur = cur.prev
		}
	}
	root := cur
	verts = make([]int32, code.VertexCount())
	usedEdge = make(map[int32]bool, len(code))
	usedVert = make(map[int32]bool, len(verts))
	for i, t := range code {
		usedEdge[edges[i]] = true
		if i == 0 {
			he := g.EdgeAt(int(edges[0]))
			u, v := he.U, he.V
			if root.flip {
				u, v = v, u
			}
			verts[t.I], verts[t.J] = u, v
			usedVert[u] = true
			usedVert[v] = true
			continue
		}
		if t.Forward() {
			// t.I is already placed; t.J is the other endpoint.
			u := verts[t.I]
			w := g.Other(int(edges[i]), u)
			verts[t.J] = w
			usedVert[w] = true
		}
	}
	return verts, usedEdge, usedVert
}
