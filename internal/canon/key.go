package canon

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"pis/internal/graph"
)

// maxKeyStates caps the states GraphKey's MinCode search keeps at one
// level. Over refined colours, 48,000 molecule queries of 4 to 40 edges
// kept at most 96, the Petersen graph 240; cliques grow factorially.
const maxKeyStates = 256

// Key kinds, the first byte of a key.
const (
	keyDiscrete = iota // refinement separated every vertex
	keyFallback        // MinCode over the colours ordered the vertices
	keyOwnOrder        // capped: g's own vertex order
)

// GraphKey returns a string equal for isomorphic graphs, labels and
// weights included, and distinct otherwise: g written out in a canonical
// vertex order. Colour refinement gives the order when it separates every
// vertex, MinCode over the colours otherwise. When that search would keep
// more than maxKeyStates states at one level (large one-label cliques,
// complete bipartite graphs, hypercubes) or g is disconnected, g is
// written in its own vertex order under its own prefix: still exact, but a
// permuted copy may get another key. The key is cached on g, so the server
// cache and every shard's result memo share one computation.
func GraphKey(g *graph.Graph) string { return g.MemoKey(graphKey) }

// keyScratch is GraphKey's pooled working memory.
type keyScratch struct {
	col, next []int32 // vertex → colour: where its cell starts in vs
	ec        []int32 // edge → class: where its (label, weight) starts in sorted order
	vs, off   []int32 // vertices cell by cell; vertex → its signature in words
	words     []uint64
	buf       []byte
}

var keyPool = sync.Pool{New: func() any { return new(keyScratch) }}

func graphKey(g *graph.Graph) string {
	s := keyPool.Get().(*keyScratch)
	defer keyPool.Put(s)
	kind := byte(keyDiscrete)
	if s.refine(g) < g.N() {
		kind = s.canonical(g)
	}
	return s.write(g, kind)
}

// refine leaves in s.col the coarsest equitable colouring of g refining
// vertex (label, weight) and returns its number of colours. Each round
// splits every cell by, and orders its parts by, the sorted multiset of
// (edge class, neighbour colour) of its vertices, until no cell splits.
// Only labels, weights and structure decide it, so isomorphic graphs get
// the same colours.
func (s *keyScratch) refine(g *graph.Graph) int {
	n, m := g.N(), g.M()
	edges, ew := graph.Records(g)
	s.col, s.next, s.ec = resize(s.col, n), resize(s.next, n), resize(s.ec, m)
	s.vs, s.off = resize(s.vs, max(n, m)), resize(s.off, n)
	for i := range s.vs {
		s.vs[i] = int32(i)
	}
	part(s.vs[:m], 0, s.ec, func(a, b int32) int {
		return cmp.Or(cmp.Compare(edges[a].Label, edges[b].Label),
			cmp.Compare(math.Float64bits(graph.WeightAt(ew, int(a))), math.Float64bits(graph.WeightAt(ew, int(b)))))
	})
	for i := range n {
		s.vs[i] = int32(i)
	}
	cells := part(s.vs[:n], 0, s.col, func(a, b int32) int {
		return cmp.Or(cmp.Compare(g.VLabelAt(int(a)), g.VLabelAt(int(b))),
			cmp.Compare(math.Float64bits(g.VWeightAt(int(a))), math.Float64bits(g.VWeightAt(int(b)))))
	})
	adj, nbrV, nbrE := g.Adjacency()
	sig := func(v int32) []uint64 { return s.words[s.off[v] : s.off[v]+adj[v+1]-adj[v]] }
	for cells < n {
		copy(s.next, s.col)
		split := cells
		for a, b := 0, 1; a < n; a, b = b, b+1 {
			for b < n && s.col[s.vs[b]] == s.col[s.vs[a]] {
				b++
			}
			if b-a == 1 {
				continue
			}
			s.words = s.words[:0]
			for _, v := range s.vs[a:b] {
				s.off[v] = int32(len(s.words))
				for sl := adj[v]; sl < adj[v+1]; sl++ {
					s.words = append(s.words, uint64(s.ec[nbrE[sl]])<<32|uint64(s.col[nbrV[sl]]))
				}
				slices.Sort(s.words[s.off[v]:])
			}
			split += part(s.vs[a:b], int32(a), s.next, func(x, y int32) int { return slices.Compare(sig(x), sig(y)) }) - 1
		}
		if split == cells {
			break
		}
		s.col, s.next, cells = s.next, s.col, split
	}
	return cells
}

// part sorts items with the comparison by and gives each, in out, first
// plus the position of the first equal item; it returns how many differ.
func part(items []int32, first int32, out []int32, by func(a, b int32) int) int {
	slices.SortFunc(items, by)
	parts, at := 0, first
	for j, it := range items {
		if j == 0 || by(items[j-1], it) != 0 {
			parts, at = parts+1, first+int32(j)
		}
		out[it] = at
	}
	return parts
}

// canonical sets s.col to the DFS ids of MinCode's first canonical
// embedding into g labelled by colour and edge class; as colours and
// classes fix labels and weights, every one writes the same key. It sets
// g's own order when the search outgrows maxKeyStates, g is disconnected
// or a colour or class would not fit a label.
func (s *keyScratch) canonical(g *graph.Graph) byte {
	if n, m := g.N(), g.M(); n <= math.MaxUint16 && m <= math.MaxUint16 {
		vl, el := make([]graph.VLabel, n), make([]graph.ELabel, m)
		for v, c := range s.col {
			vl[v] = graph.VLabel(c)
		}
		for e, c := range s.ec {
			el[e] = graph.ELabel(c)
		}
		if _, states := minCode(g.Relabel(vl, el), maxKeyStates); states != nil {
			for id, v := range states[0].order {
				s.col[v] = int32(id)
			}
			return keyFallback
		}
	}
	for v := range s.col {
		s.col[v] = int32(v)
	}
	return keyOwnOrder
}

// write lays g out after kind with vertex v at position s.col[v]: per
// position the vertex's label and weight, then how many of its edges lead
// to later positions and, ascending, each one's position, label and
// weight. The layout determines g, so equal keys mean isomorphic graphs.
func (s *keyScratch) write(g *graph.Graph, kind byte) string {
	for v, p := range s.col {
		s.vs[p] = int32(v)
	}
	b := append(s.buf[:0], kind)
	adj, nbrV, nbrE := g.Adjacency()
	edges, ew := graph.Records(g)
	for p, v := range s.vs[:g.N()] {
		b = binary.AppendUvarint(b, uint64(g.VLabelAt(int(v))))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(g.VWeightAt(int(v))))
		later := s.words[:0]
		for sl := adj[v]; sl < adj[v+1]; sl++ {
			if q := s.col[nbrV[sl]]; int(q) > p {
				later = append(later, uint64(q)<<32|uint64(nbrE[sl]))
			}
		}
		slices.Sort(later)
		b = binary.AppendUvarint(b, uint64(len(later)))
		for _, x := range later {
			e := uint32(x)
			b = binary.AppendUvarint(binary.AppendUvarint(b, x>>32), uint64(edges[e].Label))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(graph.WeightAt(ew, int(e))))
		}
		s.words = later[:0]
	}
	s.buf = b
	return string(b)
}

// resize returns s with length n and unspecified contents, reusing its
// array when it is large enough.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }
