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
	insertionSort32(out)
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

// Overlaps reports whether two fragments of the same host share a vertex.
func (f Fragment) Overlaps(o Fragment) bool {
	a, b := f.Vertices(), o.Vertices()
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// EnumerateConnectedSubgraphs calls fn with every connected edge-subgraph
// of g having between 1 and maxEdges edges, each exactly once. The slice
// passed to fn is reused between calls; fn must copy it to retain it.
// Returning false from fn stops the enumeration early.
//
// The algorithm is the classic "anchored growth" enumeration: every
// subgraph is generated from its minimum edge index by extending only with
// larger-indexed frontier edges, with an exclusion set preventing the same
// subgraph from being reached along two different orders.
func EnumerateConnectedSubgraphs(g *Graph, maxEdges int, fn func(edges []int32) bool) {
	var en SubgraphEnumerator
	en.Enumerate(g, maxEdges, fn)
}

// SubgraphEnumerator is EnumerateConnectedSubgraphs with its working
// memory kept between calls, for callers that enumerate graph after
// graph: a warmed-up Enumerate allocates nothing. The zero value is
// ready; not safe for concurrent use.
//
// Every fragment of k > 1 edges is its parent plus one edge: the last
// element of the slice is the edge added, and the rest is exactly the
// fragment passed last with k-1 edges (the enumeration is depth-first).
// canon.Classifier relies on this to classify a fragment from its
// parent's shape.
type SubgraphEnumerator struct {
	cur      []int32
	inSub    []bool
	excluded []bool
	// frontiers stacks the frontier of every active recursion level.
	frontiers []int32
}

// Enumerate is EnumerateConnectedSubgraphs over the enumerator's storage:
// same subgraphs, same order.
func (en *SubgraphEnumerator) Enumerate(g *Graph, maxEdges int, fn func(edges []int32) bool) {
	m := g.M()
	if maxEdges <= 0 || m == 0 {
		return
	}
	if cap(en.inSub) < m {
		en.inSub = make([]bool, m)
		en.excluded = make([]bool, m)
	}
	en.inSub, en.excluded = en.inSub[:m], en.excluded[:m]
	clear(en.inSub) // a panic in fn leaves marks behind
	clear(en.excluded)
	en.frontiers = en.frontiers[:0]
	for e := 0; e < m; e++ {
		en.cur = append(en.cur[:0], int32(e))
		en.inSub[e] = true
		ok := en.grow(g, int32(e), maxEdges, fn)
		en.inSub[e] = false
		if !ok {
			return
		}
	}
}

func (en *SubgraphEnumerator) grow(g *Graph, anchor int32, maxEdges int, fn func(edges []int32) bool) bool {
	if !fn(en.cur) {
		return false
	}
	if len(en.cur) == maxEdges {
		return true
	}
	// Frontier: edges incident to the current vertex set, with index
	// greater than the anchor, not already in, not excluded.
	base := len(en.frontiers)
	for _, e := range en.cur {
		ed := g.EdgeAt(int(e))
		for _, end := range [2]int32{ed.U, ed.V} {
			for _, ne := range g.IncidentEdges(int(end)) {
				if ne > anchor && !en.inSub[ne] && !en.excluded[ne] && !slices.Contains(en.frontiers[base:], ne) {
					en.frontiers = append(en.frontiers, ne)
				}
			}
		}
	}
	end := len(en.frontiers)
	insertionSort32(en.frontiers[base:end])
	// Recurse including each frontier edge; edges considered earlier are
	// excluded for later branches so each edge set is produced once. The
	// stack may be reallocated by deeper levels, so it is re-indexed, never
	// held as a slice, across the recursive call.
	ok := true
	for i := base; i < end; i++ {
		ne := en.frontiers[i]
		en.inSub[ne] = true
		en.cur = append(en.cur, ne)
		ok = en.grow(g, anchor, maxEdges, fn)
		en.cur = en.cur[:len(en.cur)-1]
		en.inSub[ne] = false
		if !ok {
			break
		}
		en.excluded[ne] = true
	}
	for _, ne := range en.frontiers[base:end] {
		en.excluded[ne] = false
	}
	en.frontiers = en.frontiers[:base]
	return ok
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
	insertionSort32(edges)
	return edges
}

func insertionSort32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
