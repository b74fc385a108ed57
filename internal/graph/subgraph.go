package graph

import "slices"

// Fragment identifies a connected edge-subgraph of a host graph by the
// host's edge indices. It is the unit the fragment-based index stores and
// the unit partitions are made of.
type Fragment struct {
	Host  *Graph
	Edges []int32 // ascending host edge indices
}

// Vertices returns the sorted host vertex ids touched by the fragment.
// Fragments are small (index-sized), so dedup is a linear scan.
func (f Fragment) Vertices() []int32 {
	out := make([]int32, 0, len(f.Edges)+1)
	for _, e := range f.Edges {
		ed := f.Host.EdgeAt(int(e))
		for _, v := range [2]int32{ed.U, ed.V} {
			if !slices.Contains(out, v) {
				out = append(out, v)
			}
		}
	}
	slices.Sort(out)
	return out
}

// Extract materializes the fragment as a standalone Graph. vmap maps the
// new graph's vertex ids back to host vertex ids: vmap[i] is the host
// vertex for extracted vertex i, ascending. emap does the same for edges,
// following the order of f.Edges; each extracted edge has its smaller
// endpoint first.
//
// The construction bypasses Builder validation: fragment edges come from
// the host, so they are already loop-free, distinct, and endpoint-valid.
func (f Fragment) Extract() (g *Graph, vmap []int32, emap []int32) {
	verts := f.Vertices()
	g = &Graph{
		vlabels: make([]VLabel, len(verts)),
		edges:   make([]Edge, len(f.Edges)),
	}
	if f.Host.vweights != nil {
		g.vweights = make([]float64, len(verts))
	}
	for i, hv := range verts {
		g.vlabels[i] = f.Host.VLabelAt(int(hv))
		if g.vweights != nil {
			g.vweights[i] = f.Host.VWeightAt(int(hv))
		}
	}
	for i, he := range f.Edges {
		ed := f.Host.EdgeAt(int(he))
		u, _ := slices.BinarySearch(verts, ed.U)
		v, _ := slices.BinarySearch(verts, ed.V)
		g.edges[i] = Edge{U: int32(min(u, v)), V: int32(max(u, v)), Label: ed.Label, Weight: ed.Weight}
	}
	g.link()
	return g, verts, append([]int32(nil), f.Edges...)
}

// EnumerateConnectedSubgraphs calls fn with every connected edge-subgraph
// of g having between 1 and maxEdges edges, each exactly once. The slice
// passed to fn is reused between calls; fn must copy it to retain it.
// Returning false from fn stops the enumeration early.
//
// The algorithm is the classic "anchored growth" enumeration: every
// subgraph is generated from its minimum edge index by extending only with
// larger-indexed frontier edges, with an exclusion set preventing the same
// subgraph from being reached along two different orders. The index finds
// fragments by walking its class codes instead; this enumeration is the
// reference its tests hold that walk to.
func EnumerateConnectedSubgraphs(g *Graph, maxEdges int, fn func(edges []int32) bool) {
	if maxEdges <= 0 {
		return
	}
	inSub, excluded := make([]bool, g.M()), make([]bool, g.M())
	var cur []int32
	var grow func(anchor int32) bool
	grow = func(anchor int32) bool {
		if !fn(cur) {
			return false
		}
		if len(cur) == maxEdges {
			return true
		}
		// Frontier: edges incident to the current vertex set, with index
		// greater than the anchor, not already in, not excluded.
		var frontier []int32
		for _, e := range cur {
			ed := g.EdgeAt(int(e))
			for _, end := range [2]int32{ed.U, ed.V} {
				for _, ne := range g.IncidentEdges(int(end)) {
					if ne > anchor && !inSub[ne] && !excluded[ne] && !slices.Contains(frontier, ne) {
						frontier = append(frontier, ne)
					}
				}
			}
		}
		slices.Sort(frontier)
		// Recurse including each frontier edge; edges considered earlier are
		// excluded for later branches so each edge set is produced once.
		ok := true
		for _, ne := range frontier {
			inSub[ne] = true
			cur = append(cur, ne)
			ok = grow(anchor)
			cur = cur[:len(cur)-1]
			inSub[ne] = false
			if !ok {
				break
			}
			excluded[ne] = true
		}
		for _, ne := range frontier {
			excluded[ne] = false
		}
		return ok
	}
	for e := range int32(g.M()) {
		cur = append(cur[:0], e)
		inSub[e] = true
		if !grow(e) {
			return
		}
		inSub[e] = false
	}
}

// RandomConnectedSubgraph returns m distinct edge indices forming a
// connected subgraph of g, grown by a uniform frontier walk driven by the
// caller's random source, or nil when g has no connected subgraph with m
// edges reachable from the chosen seed. intn must behave like rand.Intn.
func RandomConnectedSubgraph(g *Graph, m int, intn func(n int) int) []int32 {
	if m <= 0 || g.M() < m {
		return nil
	}
	start := int32(intn(g.M()))
	in := map[int32]bool{start: true}
	edges := []int32{start}
	for len(edges) < m {
		var frontier []int32
		fseen := map[int32]bool{}
		for _, e := range edges {
			ed := g.EdgeAt(int(e))
			for _, end := range [2]int32{ed.U, ed.V} {
				for _, ne := range g.IncidentEdges(int(end)) {
					if !in[ne] && !fseen[ne] {
						fseen[ne] = true
						frontier = append(frontier, ne)
					}
				}
			}
		}
		if len(frontier) == 0 {
			return nil
		}
		pick := frontier[intn(len(frontier))]
		in[pick] = true
		edges = append(edges, pick)
	}
	slices.Sort(edges)
	return edges
}
