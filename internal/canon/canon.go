// Package canon implements gSpan-style minimum DFS codes: a canonical form
// for small connected labeled graphs. It also keys whole query graphs
// (GraphKey, key.go) by colour refinement, searching for a minimum DFS
// code only over the ties refinement leaves.
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
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
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
	switch tf, of := t.Forward(), o.Forward(); {
	case tf && of && t.J != o.J:
		return cmp.Compare(t.J, o.J)
	case tf && of && t.I != o.I:
		return cmp.Compare(o.I, t.I) // deeper origin is smaller
	case !tf && !of && t.I != o.I:
		return cmp.Compare(t.I, o.I)
	case !tf && !of && t.J != o.J:
		return cmp.Compare(t.J, o.J)
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
	return cmp.Or(cmp.Compare(t.LI, o.LI), cmp.Compare(t.LE, o.LE), cmp.Compare(t.LJ, o.LJ))
}

// Code is a DFS code: a sequence of tuples.
type Code []Tuple

// Compare orders codes lexicographically, shorter prefixes first.
func (c Code) Compare(o Code) int { return slices.CompareFunc(c, o, Tuple.Compare) }

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
	n := 0
	for _, t := range c {
		n = max(n, int(t.I)+1, int(t.J)+1)
	}
	return n
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

// state is a partial DFS traversal of the host graph. Its slices are
// carved from slabs with fixed capacities (order/pos/rmpath up to n, edges
// up to m) and never reallocate.
type state struct {
	order  []int32 // dfs id -> host vertex
	pos    []int32 // host vertex -> dfs id, -1 if undiscovered
	used   []bool  // host edge consumed
	rmpath []int32 // dfs ids along the rightmost path, root first
	edges  []int32 // host edges in code order
}

// carve returns k states, their contents unspecified, for an n-vertex,
// m-edge host. It reuses the slabs behind states when they hold k: the
// search alternates two such slices, one per code length.
func carve(states []state, k, n, m int) []state {
	if k <= cap(states) {
		return states[:k]
	}
	w := 3*n + m
	ints, used := make([]int32, 2*k*w), make([]bool, 2*k*m)
	states = make([]state, 2*k)
	for i := range states {
		slab := ints[i*w : (i+1)*w]
		states[i] = state{
			order:  slab[0:0:n],
			pos:    slab[n : 2*n : 2*n],
			rmpath: slab[2*n : 2*n : 3*n],
			edges:  slab[3*n : 3*n : w],
			used:   used[i*m : (i+1)*m : (i+1)*m],
		}
	}
	return states[:k]
}

// copyFrom makes s a copy of o.
func (s *state) copyFrom(o *state) {
	s.order = append(s.order[:0], o.order...)
	copy(s.pos, o.pos)
	copy(s.used, o.used)
	s.rmpath = append(s.rmpath[:0], o.rmpath...)
	s.edges = append(s.edges[:0], o.edges...)
}

type candidate struct {
	tuple    Tuple
	stateIdx int
	hostEdge int32
	toHost   int32 // forward: newly discovered host vertex
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
	code, states := minCode(g, 0)
	if states == nil {
		panic("canon: disconnected graph")
	}
	// Distinct states hold distinct edge sequences, so no embedding repeats.
	embs := make([]Embedding, len(states))
	for i, st := range states {
		embs[i] = Embedding{Vertices: st.order, Edges: st.edges}
	}
	return code, embs
}

// minCode is MinCode's search: the code and the final states, each a
// canonical embedding. It returns nil states when g has no edge or is
// disconnected or, for limit > 0, when more than limit states would live
// at one level, a count isomorphic graphs share.
func minCode(g *graph.Graph, limit int) (Code, []state) {
	n, m := g.N(), g.M()

	// Seed states: the minimal first tuple over every directed edge.
	var best Tuple
	var seeds [][3]int32 // u, v, edge
	for e := 0; e < m; e++ {
		ed := g.EdgeAt(e)
		for _, d := range [2][2]int32{{ed.U, ed.V}, {ed.V, ed.U}} {
			t := Tuple{I: 0, J: 1, LI: g.VLabelAt(int(d[0])), LE: ed.Label, LJ: g.VLabelAt(int(d[1]))}
			if c := t.Compare(best); len(seeds) == 0 || c < 0 {
				best, seeds = t, seeds[:0]
			} else if c > 0 {
				continue
			}
			seeds = append(seeds, [3]int32{d[0], d[1], int32(e)})
		}
	}
	if len(seeds) == 0 || limit > 0 && len(seeds) > limit {
		return nil, nil
	}
	code := append(make(Code, 0, m), best)
	cur, next := carve(nil, len(seeds), n, m), []state(nil)
	for i, sd := range seeds {
		st := &cur[i]
		for i := range st.pos {
			st.pos[i] = -1
		}
		clear(st.used)
		st.pos[sd[0]], st.pos[sd[1]] = 0, 1
		st.order = append(st.order, sd[0], sd[1])
		st.rmpath = append(st.rmpath, 0, 1)
		st.edges = append(st.edges, sd[2])
		st.used[sd[2]] = true
	}

	var cands []candidate
	for len(code) < m {
		cands = cands[:0]
		for si := range cur {
			collectExtensions(g, &cur[si], func(c candidate) {
				c.stateIdx = si
				if len(cands) > 0 {
					if d := c.tuple.Compare(cands[0].tuple); d > 0 {
						return
					} else if d < 0 {
						cands = cands[:0]
					}
				}
				cands = append(cands, c)
			})
		}
		if len(cands) == 0 || limit > 0 && len(cands) > limit {
			return nil, nil
		}
		min := cands[0].tuple
		code = append(code, min)
		next = carve(next, len(cands), n, m)
		for i, c := range cands {
			st := &next[i]
			st.copyFrom(&cur[c.stateIdx])
			st.used[c.hostEdge] = true
			st.edges = append(st.edges, c.hostEdge)
			if min.Forward() {
				st.pos[c.toHost] = int32(len(st.order))
				st.order = append(st.order, c.toHost)
				// Truncate the rightmost path to the growth point, then
				// descend into the new vertex.
				for len(st.rmpath) > 0 && st.rmpath[len(st.rmpath)-1] != min.I {
					st.rmpath = st.rmpath[:len(st.rmpath)-1]
				}
				st.rmpath = append(st.rmpath, min.J)
			}
		}
		cur, next = next, cur
	}
	return code, cur
}

// collectExtensions feeds emit the next DFS edges of st that can be
// minimal: the backward edges from the rightmost vertex or, without any,
// the forward edges from the deepest rightmost-path vertex that has some.
// Backward edges precede forward ones and deeper origins shallower ones,
// so the minimum over all states and its ties keep their order.
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
	emitted := false
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
			emitted = true
		}
	}
	// Forward: a rightmost-path vertex to an undiscovered vertex.
	nextID := int32(len(st.order))
	for i := len(st.rmpath) - 1; i >= 0 && !emitted; i-- {
		id := st.rmpath[i]
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
			})
			emitted = true
		}
	}
}

// StructureKey is a convenience returning the class key of g's skeleton.
func StructureKey(g *graph.Graph) string {
	code, _ := MinCode(g.Skeleton())
	return code.Key()
}
