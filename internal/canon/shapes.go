// Classifying fragments by extension. Enumeration presents the same few
// dozen skeleton shapes millions of times, and makes every fragment by
// adding one edge to the fragment one level up (graph.SubgraphEnumerator).
// So a Shapes table maps (shape, DFS ids the new edge attaches to) to the
// next shape and to where the next shape's code graph lies in the old one
// plus the edge — Embs[0] of MinCode, computed once per
// transition and read lock-free afterwards — and a Classifier carries each
// fragment's placement (the host vertex at every DFS id, the host edge at
// every code tuple) down the enumeration: one table probe and a copy of a
// dozen ids per fragment.
//
// The composed placement is an embedding of the new code graph into the
// host: the step's map is an isomorphism from the code graph onto the old
// code graph plus the edge, and the parent's placement plus the host edge
// one from that onto the host fragment. The table holds the connected
// shapes of at most MaxFragmentEdges edges that occur (22 shapes and 93
// transitions on molecules at 5 edges), whatever it classified.

package canon

import (
	"sync"
	"sync/atomic"

	"pis/internal/graph"
)

// Shapes is a shape-transition table whose shapes each resolve to a class
// of type C, or to nil, once. It is safe for concurrent use; create it
// with NewShapes.
type Shapes[C any] struct {
	resolve func(key string) *C
	edge    *Shape[C] // the one-edge shape every fragment grows from

	mu          sync.Mutex // serializes computing transitions
	byKey       map[string]*Shape[C]
	transitions int
}

// Shape is one skeleton shape: a minimum DFS code of an unlabeled
// connected graph, and the class it resolved to.
type Shape[C any] struct {
	Code  Code
	Key   string // Code.Key()
	Class *C     // resolve(Key), nil when the shape is not a class
	graph *graph.Graph
	// next holds the step adding an edge between DFS ids i < j at
	// nv + j(j-1)/2 + i, and the one adding a vertex at i at i.
	next []atomic.Pointer[step[C]]
}

// step is one transition: the shape reached, and for each of its DFS ids
// and tuples the old DFS id and tuple playing it — the old vertex count
// for the new vertex, the old edge count for the new edge.
type step[C any] struct {
	to           *Shape[C]
	verts, edges []int32
}

// NewShapes returns an empty table whose shapes resolve their class
// through resolve, called once per shape under the table's lock.
func NewShapes[C any](resolve func(key string) *C) *Shapes[C] {
	t := &Shapes[C]{resolve: resolve, byKey: make(map[string]*Shape[C])}
	t.edge = t.intern(Code{{I: 0, J: 1}})
	return t
}

// Len reports the shapes and the transitions the table holds.
func (t *Shapes[C]) Len() (shapes, transitions int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byKey), t.transitions
}

// intern returns the shape of code, creating it; t.mu must be held or t
// not yet shared.
func (t *Shapes[C]) intern(code Code) *Shape[C] {
	key := code.Key()
	if s := t.byKey[key]; s != nil {
		return s
	}
	nv := code.VertexCount()
	s := &Shape[C]{
		Code:  code,
		Key:   key,
		Class: t.resolve(key),
		graph: code.Graph(),
		next:  make([]atomic.Pointer[step[C]], nv+nv*(nv-1)/2),
	}
	t.byKey[key] = s
	return s
}

// extend returns the step from s adding an edge between DFS ids i and j;
// j == the vertex count of s adds a new vertex attached at i.
func (t *Shapes[C]) extend(s *Shape[C], i, j int32) *step[C] {
	nv := int32(s.graph.N())
	if i > j {
		i, j = j, i
	}
	slot := i
	if j < nv {
		slot = nv + j*(j-1)/2 + i
	}
	if st := s.next[slot].Load(); st != nil {
		return st
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := s.next[slot].Load(); st != nil {
		return st
	}
	n := max(nv, j+1)
	b := graph.NewBuilder(int(n), s.graph.M()+1)
	for range n {
		b.AddVertex(0)
	}
	for _, e := range s.graph.Edges() {
		b.AddEdge(e.U, e.V, 0)
	}
	b.AddEdge(i, j, 0)
	code, embs := MinCode(b.MustBuild())
	st := &step[C]{to: t.intern(code), verts: embs[0].Vertices, edges: embs[0].Edges}
	s.next[slot].Store(st)
	t.transitions++
	return st
}

// Placement is a classified fragment: its shape, and where the shape's
// code graph lies in the host.
type Placement[C any] struct {
	Shape    *Shape[C]
	Vertices []int32 // the host vertex at each DFS id
	Edges    []int32 // the host edge at each code tuple
}

// Classifier classifies the fragments of a graph.SubgraphEnumerator run
// as they come, one placement per fragment size. The zero value is ready;
// one Classifier serves one goroutine.
type Classifier[C any] struct {
	levels []Placement[C]
}

// Classify places the fragment of host made of edges, which must be what
// the enumerator passed: edges[:len(edges)-1] is then the fragment this
// Classifier placed last at that size. The placement is valid until the
// next Classify of a fragment of the same size; a warmed-up call
// allocates nothing.
func (cl *Classifier[C]) Classify(t *Shapes[C], host *graph.Graph, edges []int32) *Placement[C] {
	d := len(edges) - 1
	for len(cl.levels) <= d {
		cl.levels = append(cl.levels, Placement[C]{})
	}
	p := &cl.levels[d]
	he := edges[d]
	ed := host.EdgeAt(int(he))
	if d == 0 {
		p.Shape = t.edge
		p.Vertices = append(p.Vertices[:0], ed.U, ed.V)
		p.Edges = append(p.Edges[:0], he)
		return p
	}
	parent := &cl.levels[d-1]
	nv := int32(len(parent.Vertices))
	// The edge joins two placed vertices, or one placed vertex and the
	// fresh one the fragment is connected through.
	i, j, fresh := idOf(parent.Vertices, ed.U), idOf(parent.Vertices, ed.V), int32(-1)
	switch {
	case i < 0:
		i, j, fresh = j, nv, ed.U
	case j < 0:
		j, fresh = nv, ed.V
	}
	st := t.extend(parent.Shape, i, j)
	p.Shape = st.to
	p.Vertices = compose(p.Vertices, parent.Vertices, st.verts, fresh)
	p.Edges = compose(p.Edges, parent.Edges, st.edges, he)
	return p
}

// compose overwrites dst with what parent holds at each position of perm,
// added for the position just past parent's end.
func compose(dst, parent, perm []int32, added int32) []int32 {
	dst = dst[:0]
	for _, k := range perm {
		if int(k) == len(parent) {
			dst = append(dst, added)
		} else {
			dst = append(dst, parent[k])
		}
	}
	return dst
}

// idOf returns the DFS id of host vertex v in a placement, or -1.
func idOf(verts []int32, v int32) int32 {
	for k, u := range verts {
		if u == v {
			return int32(k)
		}
	}
	return -1
}
