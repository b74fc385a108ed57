// Package canon implements gSpan-style minimum DFS codes: a canonical form
// for small connected labeled graphs.
//
// PIS uses minimum DFS codes in three roles:
//
//  1. class keys — two fragments belong to the same structural equivalence
//     class iff the min DFS codes of their skeletons are equal;
//  2. sequence alignment — the canonical code of a class fixes a vertex and
//     edge order, so the labels of every member fragment become a
//     fixed-length sequence comparable position by position;
//  3. automorphism orbits — MinCode returns every embedding of the code
//     graph into the input, which is exactly the orbit needed to take the
//     minimum superimposed distance over all superpositions.
//
// The construction is the stepwise-minimal extension used by gSpan's isMin
// check, generalized to return all canonical embeddings. For connected
// graphs the greedy prefix is always extendable (backward edges from the
// rightmost vertex always precede forward edges, and forward extensions
// always come from the deepest right-path vertex with an unvisited
// neighbor, so no edge is ever stranded), which makes the stepwise minimum
// the global lexicographic minimum.
package canon

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"pis/internal/graph"
)

// Tuple is one DFS-code entry (i, j, l_i, l_e, l_j). Forward edges have
// J == I+something > I and discover vertex J; backward edges have J < I.
type Tuple struct {
	I, J int32
	LI   graph.VLabel
	LE   graph.ELabel
	LJ   graph.VLabel
}

// Forward reports whether t discovers a new vertex.
func (t Tuple) Forward() bool { return t.I < t.J }

// Compare orders tuples by the gSpan DFS lexicographic order: edge
// positions first (backward-vs-forward rules), then (LI, LE, LJ).
func (t Tuple) Compare(o Tuple) int {
	tf, of := t.Forward(), o.Forward()
	switch {
	case tf && of:
		if t.J != o.J {
			if t.J < o.J {
				return -1
			}
			return 1
		}
		if t.I != o.I {
			if t.I > o.I { // deeper origin is smaller
				return -1
			}
			return 1
		}
	case !tf && !of:
		if t.I != o.I {
			if t.I < o.I {
				return -1
			}
			return 1
		}
		if t.J != o.J {
			if t.J < o.J {
				return -1
			}
			return 1
		}
	case !tf && of: // t backward, o forward
		if t.I < o.J {
			return -1
		}
		return 1
	case tf && !of: // t forward, o backward
		if t.J <= o.I {
			return -1
		}
		return 1
	}
	// Same edge position: compare labels.
	switch {
	case t.LI != o.LI:
		if t.LI < o.LI {
			return -1
		}
		return 1
	case t.LE != o.LE:
		if t.LE < o.LE {
			return -1
		}
		return 1
	case t.LJ != o.LJ:
		if t.LJ < o.LJ {
			return -1
		}
		return 1
	}
	return 0
}

// Code is a DFS code: a sequence of tuples.
type Code []Tuple

// Compare orders codes lexicographically, shorter prefixes first.
func (c Code) Compare(o Code) int {
	for i := 0; i < len(c) && i < len(o); i++ {
		if d := c[i].Compare(o[i]); d != 0 {
			return d
		}
	}
	switch {
	case len(c) < len(o):
		return -1
	case len(c) > len(o):
		return 1
	}
	return 0
}

// Key returns a compact byte-string encoding usable as a map key. Codes are
// equal iff their keys are equal.
func (c Code) Key() string {
	buf := make([]byte, 0, len(c)*10)
	var tmp [10]byte
	for _, t := range c {
		tmp[0] = byte(t.I)
		tmp[1] = byte(t.J)
		binary.LittleEndian.PutUint16(tmp[2:], uint16(t.LI))
		binary.LittleEndian.PutUint16(tmp[4:], uint16(t.LE))
		binary.LittleEndian.PutUint16(tmp[6:], uint16(t.LJ))
		binary.LittleEndian.PutUint16(tmp[8:], 0)
		buf = append(buf, tmp[:10]...)
	}
	return string(buf)
}

// String renders the code for debugging.
func (c Code) String() string {
	var b strings.Builder
	for i, t := range c {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "(%d,%d,%d,%d,%d)", t.I, t.J, t.LI, t.LE, t.LJ)
	}
	return b.String()
}

// VertexCount returns the number of vertices of the code graph.
func (c Code) VertexCount() int {
	max := int32(-1)
	for _, t := range c {
		if t.I > max {
			max = t.I
		}
		if t.J > max {
			max = t.J
		}
	}
	return int(max) + 1
}

// Graph reconstructs the canonical graph described by the code: vertex k of
// the result corresponds to DFS id k, edge k to tuple k.
func (c Code) Graph() *graph.Graph {
	n := c.VertexCount()
	b := graph.NewBuilder(n, len(c))
	labels := make([]graph.VLabel, n)
	for _, t := range c {
		labels[t.I] = t.LI
		if t.Forward() {
			labels[t.J] = t.LJ
		}
	}
	for _, l := range labels {
		b.AddVertex(l)
	}
	for _, t := range c {
		b.AddEdge(t.I, t.J, t.LE)
	}
	return b.MustBuild()
}

// Embedding maps the canonical code graph onto a host graph: Vertices[k] is
// the host vertex playing DFS id k, Edges[k] the host edge playing tuple k.
type Embedding struct {
	Vertices []int32
	Edges    []int32
}

// state is a partial DFS traversal of the host graph. All int32 slices
// share one backing slab so cloning costs two allocations; each slice is
// carved with a fixed capacity (order/pos/rmpath up to n, edges up to m)
// and never reallocates.
type state struct {
	order  []int32 // dfs id -> host vertex
	pos    []int32 // host vertex -> dfs id, -1 if undiscovered
	used   []bool  // host edge consumed
	rmpath []int32 // dfs ids along the rightmost path, root first
	edges  []int32 // host edges in code order
}

// newState carves an empty state for an n-vertex, m-edge host.
func newState(n, m int) *state {
	slab := make([]int32, 3*n+m)
	return &state{
		order:  slab[0:0:n],
		pos:    slab[n : 2*n : 2*n],
		rmpath: slab[2*n : 2*n : 3*n],
		edges:  slab[3*n : 3*n : 3*n+m],
		used:   make([]bool, m),
	}
}

func (s *state) clone() *state {
	n, m := len(s.pos), len(s.used)
	c := newState(n, m)
	c.order = c.order[:len(s.order)]
	copy(c.order, s.order)
	copy(c.pos, s.pos)
	copy(c.used, s.used)
	c.rmpath = c.rmpath[:len(s.rmpath)]
	copy(c.rmpath, s.rmpath)
	c.edges = c.edges[:len(s.edges)]
	copy(c.edges, s.edges)
	return c
}

type candidate struct {
	tuple    Tuple
	stateIdx int
	hostEdge int32
	toHost   int32 // forward: newly discovered host vertex
	fromID   int32 // forward: dfs id the edge grows from
}

// MinCode computes the minimum DFS code of a connected graph g along with
// every embedding of the code graph into g (the canonical orbit). For a
// single-vertex graph the code is empty and the sole embedding is vertex 0.
// MinCode panics if g is disconnected or empty: fragments are connected by
// construction, so a violation is a programming error.
func MinCode(g *graph.Graph) (Code, []Embedding) {
	n, m := g.N(), g.M()
	if n == 0 {
		panic("canon: empty graph")
	}
	if m == 0 {
		if n > 1 {
			panic("canon: disconnected graph")
		}
		return Code{}, []Embedding{{Vertices: []int32{0}}}
	}

	// Seed states: the minimal first tuple over every directed edge.
	var best Tuple
	var seeds []*state
	first := true
	for e := 0; e < m; e++ {
		ed := g.EdgeAt(e)
		for _, dir := range [2][2]int32{{ed.U, ed.V}, {ed.V, ed.U}} {
			u, v := dir[0], dir[1]
			t := Tuple{I: 0, J: 1, LI: g.VLabelAt(int(u)), LE: ed.Label, LJ: g.VLabelAt(int(v))}
			cmp := 1
			if !first {
				cmp = t.Compare(best)
			}
			if cmp < 0 || first {
				best = t
				seeds = seeds[:0]
				first = false
			}
			if t.Compare(best) == 0 {
				st := newState(n, m)
				for i := range st.pos {
					st.pos[i] = -1
				}
				st.pos[u], st.pos[v] = 0, 1
				st.order = append(st.order, u, v)
				st.rmpath = append(st.rmpath, 0, 1)
				st.edges = append(st.edges, int32(e))
				st.used[e] = true
				seeds = append(seeds, st)
			}
		}
	}
	code := Code{best}
	states := seeds

	var cands []candidate
	for len(code) < m {
		cands = cands[:0]
		var min Tuple
		haveMin := false
		for si, st := range states {
			collectExtensions(g, st, func(c candidate) {
				c.stateIdx = si
				cmp := 1
				if haveMin {
					cmp = c.tuple.Compare(min)
				}
				if cmp < 0 || !haveMin {
					min = c.tuple
					cands = cands[:0]
					haveMin = true
				}
				if c.tuple.Compare(min) == 0 {
					cands = append(cands, c)
				}
			})
		}
		if !haveMin {
			panic("canon: disconnected graph")
		}
		code = append(code, min)
		next := make([]*state, 0, len(cands))
		for _, c := range cands {
			st := states[c.stateIdx].clone()
			st.used[c.hostEdge] = true
			st.edges = append(st.edges, c.hostEdge)
			if min.Forward() {
				st.pos[c.toHost] = int32(len(st.order))
				st.order = append(st.order, c.toHost)
				// Truncate the rightmost path to the growth point, then
				// descend into the new vertex.
				for len(st.rmpath) > 0 && st.rmpath[len(st.rmpath)-1] != c.fromID {
					st.rmpath = st.rmpath[:len(st.rmpath)-1]
				}
				st.rmpath = append(st.rmpath, min.J)
			}
			next = append(next, st)
		}
		states = next
	}

	embs := make([]Embedding, 0, len(states))
	seen := make(map[string]bool, len(states))
	var sig []byte
	for _, st := range states {
		sig = sig[:0]
		for _, v := range st.order {
			sig = append(sig, byte(v), byte(v>>8))
		}
		for _, e := range st.edges {
			sig = append(sig, byte(e), byte(e>>8))
		}
		if seen[string(sig)] {
			continue
		}
		seen[string(sig)] = true
		embs = append(embs, Embedding{Vertices: st.order, Edges: st.edges})
	}
	return code, embs
}

// collectExtensions feeds every legal next DFS edge of st to emit.
func collectExtensions(g *graph.Graph, st *state, emit func(candidate)) {
	rmID := st.rmpath[len(st.rmpath)-1]
	rmHost := st.order[rmID]
	onPath := func(id int32) bool {
		for _, p := range st.rmpath {
			if p == id {
				return true
			}
		}
		return false
	}
	// Backward: rightmost vertex to an earlier rightmost-path vertex.
	for _, e := range g.IncidentEdges(int(rmHost)) {
		if st.used[e] {
			continue
		}
		w := g.Other(int(e), rmHost)
		wid := st.pos[w]
		if wid >= 0 && onPath(wid) {
			emit(candidate{
				tuple: Tuple{
					I: rmID, J: wid,
					LI: g.VLabelAt(int(rmHost)),
					LE: g.EdgeAt(int(e)).Label,
					LJ: g.VLabelAt(int(w)),
				},
				hostEdge: e,
			})
		}
	}
	// Forward: any rightmost-path vertex to an undiscovered vertex.
	nextID := int32(len(st.order))
	for _, id := range st.rmpath {
		u := st.order[id]
		for _, e := range g.IncidentEdges(int(u)) {
			if st.used[e] {
				continue
			}
			w := g.Other(int(e), u)
			if st.pos[w] != -1 {
				continue
			}
			emit(candidate{
				tuple: Tuple{
					I: id, J: nextID,
					LI: g.VLabelAt(int(u)),
					LE: g.EdgeAt(int(e)).Label,
					LJ: g.VLabelAt(int(w)),
				},
				hostEdge: e,
				toHost:   w,
				fromID:   id,
			})
		}
	}
}

// StructureKey is a convenience returning the class key of g's skeleton.
func StructureKey(g *graph.Graph) string {
	code, _ := MinCode(g.Skeleton())
	return code.Key()
}

// GraphKey returns a string equal for isomorphic graphs and distinct
// otherwise: the minimum DFS code key plus the lexicographically smallest
// vertex-label + weight sequence over all canonical embeddings (so
// weighted graphs only collide when an automorphism maps the weights
// too). Vertex labels are part of the key because the DFS code of a
// single-vertex graph is empty — without them every edge-free graph
// would share one key. The result is computed once per *graph.Graph and
// cached on it, so the server's result cache and the result memo of
// every shard a request reaches share one MinCode run.
func GraphKey(g *graph.Graph) string { return g.MemoKey(graphKey) }

func graphKey(g *graph.Graph) string {
	code, embs := MinCode(g)
	var best []byte
	buf := make([]byte, 0, 10*(g.N()+g.M()))
	for _, emb := range embs {
		buf = buf[:0]
		for _, v := range emb.Vertices {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(g.VLabelAt(int(v))))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.VWeightAt(int(v))))
		}
		for _, e := range emb.Edges {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.EdgeAt(int(e)).Weight))
		}
		if best == nil || string(buf) < string(best) {
			best = append(best[:0], buf...)
		}
	}
	return code.Key() + "|" + string(best)
}
