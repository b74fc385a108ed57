// Package graph provides the labeled undirected graph type shared by every
// PIS subsystem: the database graphs, query graphs, fragments and mined
// feature structures are all values of this package's Graph type.
//
// Graphs are simple (no self loops, no parallel edges), undirected, and
// carry integer labels plus optional float64 weights on both vertices and
// edges. Label semantics are up to the caller: the chemistry generator uses
// atom/bond types, the linear-distance experiments use weights only.
package graph

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"unsafe"
)

// VLabel is a vertex label. The zero value is a valid "blank" label;
// structure-only operations treat every vertex as if it carried zero.
type VLabel uint16

// ELabel is an edge label with the same conventions as VLabel.
type ELabel uint16

// Edge is one undirected edge of a Graph. U < V always holds after
// normalization by the Builder.
type Edge struct {
	U, V   int32
	Label  ELabel
	Weight float64
}

// EdgeRec is an Edge as a Graph stores it, 12 bytes: the weights, if
// any, sit in a column of their own (Records).
type EdgeRec struct {
	U, V  int32
	Label ELabel
}

// Graph is an immutable labeled undirected graph. Construct one with a
// Builder; the zero Graph is a valid empty graph. Every array it holds is
// exactly as long as its content (layout).
type Graph struct {
	vlabels  []VLabel
	vweights []float64 // nil when the graph carries no vertex weights
	edges    []EdgeRec
	eweights []float64 // nil exactly when every edge weight's bits are zero
	// adj is the adjacency in CSR form, three pieces of one array filled by
	// link: off (n+1 slots), then nbrE, then nbrV (2m slots each). The
	// neighbors of v sit in slots off[v]..off[v+1], ascending by edge
	// index; nbrE[s] is the incident edge, nbrV[s] its other endpoint.
	adj []int32
	// fp is the prescreen fingerprint (see FP), filled by every
	// constructor.
	fp FP

	// inv caches the structural annotation (see Invariants): the first
	// word of its block, nil until first use. Never serialized or cloned.
	inv atomic.Pointer[uint32]
	// key caches a canonical string form of the graph (see MemoKey), nil
	// until first use. Never serialized or cloned.
	key atomic.Pointer[string]
}

// MemoKey returns the string cached on g, filling the slot with
// compute(g) on first use; concurrent first uses may each compute it and
// one result is kept. The slot has one owner, canon.GraphKey — graph
// cannot import canon, so the computation is passed in.
func (g *Graph) MemoKey(compute func(*Graph) string) string {
	if p := g.key.Load(); p != nil {
		return *p
	}
	k := compute(g)
	if !g.key.CompareAndSwap(nil, &k) {
		return *g.key.Load()
	}
	return k
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.vlabels) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// VLabelAt returns the label of vertex v.
func (g *Graph) VLabelAt(v int) VLabel { return g.vlabels[v] }

// VWeightAt returns the weight of vertex v (0 when weights are unused).
func (g *Graph) VWeightAt(v int) float64 { return WeightAt(g.vweights, v) }

// EdgeAt returns edge e by index, its weight read from the weight column.
func (g *Graph) EdgeAt(e int) Edge {
	r := g.edges[e]
	return Edge{U: r.U, V: r.V, Label: r.Label, Weight: WeightAt(g.eweights, e)}
}

// Edges yields every edge with its index, ascending.
func (g *Graph) Edges() iter.Seq2[int, Edge] {
	return func(yield func(int, Edge) bool) {
		for e := 0; e < len(g.edges) && yield(e, g.EdgeAt(e)); e++ {
		}
	}
}

// Records returns g's edge records and its edge weights, both indexed like
// EdgeAt, for kernels that read them in place; the weights are nil when
// every one's bits are zero. Callers must not modify them.
func Records(g *Graph) ([]EdgeRec, []float64) { return g.edges, g.eweights }

// WeightAt returns weight i of a weight column, 0 when the column is nil.
func WeightAt(ws []float64, i int) float64 {
	if ws == nil {
		return 0
	}
	return ws[i]
}

// HeapBytes returns the heap g holds: its header, its arrays (an
// adjacency shared with Relabel's copies counts for each) and its cached
// invariants, as asked for, not rounded up to allocation size classes.
func HeapBytes(g *Graph) int {
	n := int(unsafe.Sizeof(*g)) + 2*len(g.vlabels) + 8*len(g.vweights) +
		12*len(g.edges) + 8*len(g.eweights) + 4*len(g.adj)
	if g.inv.Load() != nil {
		n += 4 * invWords(g.N(), g.M())
	}
	return n
}

// IncidentEdges returns the indices of edges incident to v, ascending.
// Callers must not modify the returned slice.
func (g *Graph) IncidentEdges(v int) []int32 {
	off, _, nbrE := g.Adjacency()
	return nbrE[off[v]:off[v+1]:off[v+1]]
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.adj[v+1] - g.adj[v]) }

// Adjacency returns the CSR arrays themselves, for kernels that walk them
// in place: v's slots are off[v]..off[v+1] (len(off) is N()+1, or 0 for the
// zero Graph), nbrV[s] the neighbor and nbrE[s] the edge reaching it.
// Callers must not modify them.
func (g *Graph) Adjacency() (off, nbrV, nbrE []int32) {
	k, m := min(len(g.vlabels)+1, len(g.adj)), 2*len(g.edges) // k = 0 for the zero Graph
	return g.adj[:k:k], g.adj[k+m:], g.adj[k : k+m : k+m]
}

// layout is every constructor's last step: the graph over vertex labels
// vl and weights vw (nil for none), edge records es and weights ew, each
// array exactly as long as its content (adopted if so, else copied), ew
// nil when every weight's bits are zero, and the fingerprint filled. adj
// is the adjacency a copy shares with its source (Relabel), else nil.
func layout(vl []VLabel, vw []float64, es []EdgeRec, ew []float64, adj []int32) *Graph {
	if !slices.ContainsFunc(ew, func(w float64) bool { return math.Float64bits(w) != 0 }) {
		ew = nil
	}
	g := &Graph{vlabels: exact(vl), vweights: exact(vw), edges: exact(es), eweights: exact(ew), adj: adj}
	if adj == nil {
		g.link()
	}
	g.fp = computeFP(g)
	return g
}

// exact returns s when its capacity is its length, else a copy whose is.
func exact[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	return append(make(S, 0, len(s)), s...)
}

// link lays out the adjacency of g.edges over len(g.vlabels) vertices.
// Slots fill in edge order, so every vertex's run ascends by edge index —
// the invariant the constructors rely on instead of sorting. Endpoints
// must already be in range.
func (g *Graph) link() {
	n, m := len(g.vlabels), len(g.edges)
	g.adj = make([]int32, n+1+4*m)
	off, nbrV, nbrE := g.Adjacency()
	for _, e := range g.edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// off[v] is v's write cursor during the fill and ends at v's end, which
	// is v+1's start: shifting up by one restores the starts.
	for i, e := range g.edges {
		nbrE[off[e.U]], nbrV[off[e.U]] = int32(i), e.V
		off[e.U]++
		nbrE[off[e.V]], nbrV[off[e.V]] = int32(i), e.U
		off[e.V]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
}

// Other returns the endpoint of edge e that is not v.
func (g *Graph) Other(e int, v int32) int32 {
	ed := g.edges[e]
	if ed.U == v {
		return ed.V
	}
	return ed.U
}

// EdgeBetween returns the index of the edge joining u and v, or -1.
func (g *Graph) EdgeBetween(u, v int32) int {
	if u > v {
		u, v = v, u
	}
	// Scan the smaller adjacency list.
	a, b := u, v
	if g.Degree(int(a)) > g.Degree(int(b)) {
		a, b = b, a
	}
	off, nbrV, nbrE := g.Adjacency()
	for s := off[a]; s < off[a+1]; s++ {
		if nbrV[s] == b {
			return int(nbrE[s])
		}
	}
	return -1
}

// Connected reports whether the graph is connected (the empty graph and
// single vertices are connected).
func (g *Graph) Connected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	off, nbrV, _ := g.Adjacency()
	seen := make([]bool, n)
	stack := []int32{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range nbrV[off[v]:off[v+1]] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return layout(slices.Clone(g.vlabels), slices.Clone(g.vweights), slices.Clone(g.edges), slices.Clone(g.eweights), nil)
}

// Skeleton returns a copy of g with every vertex and edge label zeroed and
// weights dropped. Two graphs share a structure class iff their skeletons
// are isomorphic.
func (g *Graph) Skeleton() *Graph { return g.Relabel(make([]VLabel, g.N()), make([]ELabel, g.M())) }

// Relabel returns a copy of g without weights whose vertex v carries label
// vl[v] and edge e label el[e]. The copy keeps vl and shares g's
// adjacency, which is label-independent.
func (g *Graph) Relabel(vl []VLabel, el []ELabel) *Graph {
	es := make([]EdgeRec, g.M())
	for i, e := range g.edges {
		es[i] = EdgeRec{U: e.U, V: e.V, Label: el[i]}
	}
	return layout(vl, nil, es, nil, g.adj)
}

// String renders a compact human-readable form, stable across runs.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph{n=%d m=%d", g.N(), g.M())
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(&b, " v%d:%d", v, g.vlabels[v])
	}
	for _, e := range g.edges {
		fmt.Fprintf(&b, " (%d-%d:%d)", e.U, e.V, e.Label)
	}
	b.WriteString("}")
	return b.String()
}

// Builder accumulates vertices and edges and produces an immutable Graph.
// The zero Builder is ready to use.
type Builder struct {
	vlabels  []VLabel
	vweights []float64
	edges    []EdgeRec
	eweights []float64
	err      error
}

// NewBuilder returns a Builder expecting roughly n vertices and m edges.
func NewBuilder(n, m int) *Builder {
	return &Builder{
		vlabels: make([]VLabel, 0, n),
		edges:   make([]EdgeRec, 0, m),
	}
}

// N returns the number of vertices added so far.
func (b *Builder) N() int { return len(b.vlabels) }

// AddVertex appends a vertex with the given label and returns its id.
func (b *Builder) AddVertex(l VLabel) int32 { return b.AddWeightedVertex(l, 0) }

// AddWeightedVertex appends a vertex carrying a weight. The weight column
// starts at the first weight whose bits are not zero, so a graph whose
// vertex weights are all zero carries none.
func (b *Builder) AddWeightedVertex(l VLabel, w float64) int32 {
	b.vlabels = append(b.vlabels, l)
	if b.vweights == nil && math.Float64bits(w) != 0 {
		b.vweights = make([]float64, len(b.vlabels)-1, cap(b.vlabels))
	}
	if b.vweights != nil {
		b.vweights = append(b.vweights, w)
	}
	return int32(len(b.vlabels) - 1)
}

// AddEdge appends an undirected labeled edge. Self loops and dangling
// endpoints are recorded as errors surfaced by Build, which also refuses
// duplicate edges.
func (b *Builder) AddEdge(u, v int32, l ELabel) { b.AddWeightedEdge(u, v, l, 0) }

// AddWeightedEdge appends an undirected labeled weighted edge.
func (b *Builder) AddWeightedEdge(u, v int32, l ELabel, w float64) {
	if b.err != nil {
		return
	}
	if u == v {
		b.err = fmt.Errorf("graph: self loop on vertex %d", u)
		return
	}
	if u > v {
		u, v = v, u
	}
	if int(v) >= len(b.vlabels) || u < 0 {
		b.err = fmt.Errorf("graph: edge (%d,%d) references unknown vertex", u, v)
		return
	}
	b.edges = append(b.edges, EdgeRec{U: u, V: v, Label: l})
	if b.eweights == nil && math.Float64bits(w) != 0 {
		b.eweights = make([]float64, len(b.edges)-1, cap(b.edges))
	}
	if b.eweights != nil {
		b.eweights = append(b.eweights, w)
	}
}

// Build finalizes the graph. It returns an error for self loops, duplicate
// edges, or dangling endpoints recorded during construction.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := layout(b.vlabels, b.vweights, b.edges, b.eweights, nil)
	if err := g.checkSimple(); err != nil {
		return nil, err
	}
	return g, nil
}

// checkSimple refuses a linked graph in which an edge repeats another. A
// duplicate edge repeats a neighbor in its endpoints' runs: met[w] is v+1
// once w has been met in v's. A graph of up to 64 vertices keeps met on
// the stack.
func (g *Graph) checkSimple() error {
	off, nbrV, _ := g.Adjacency()
	var buf [64]int32
	met := buf[:min(g.N(), len(buf))]
	if g.N() > len(buf) {
		met = make([]int32, g.N())
	}
	for v := range met {
		for _, w := range nbrV[off[v]:off[v+1]] {
			if met[w] == int32(v+1) {
				return fmt.Errorf("graph: duplicate edge (%d,%d)", min(int32(v), w), max(int32(v), w))
			}
			met[w] = int32(v + 1)
		}
	}
	return nil
}

// MustBuild is Build that panics on error; for tests and literals.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
