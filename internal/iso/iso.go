// Package iso implements subgraph isomorphism over the labeled graphs of
// internal/graph: one backtracking matcher that serves both structural
// queries and the branch-and-bound search for the minimum superimposed
// distance of the PIS paper (Definition 1).
//
// Subgraph isomorphism here follows the paper's convention: it considers
// only the structure (skeleton) of the pattern; labels enter through the
// distance metric, never as hard match constraints. An "embedding" maps
// pattern vertices injectively onto host vertices such that every pattern
// edge has a corresponding host edge (non-induced / monomorphism
// semantics, which is what substructure search means for molecules).
//
// The matcher is table-driven: a pattern is compiled once into one step
// per depth of its match order, and the search walks each host's flat
// neighbor arrays (graph.Graph.Adjacency) in place.
//
// Besides degree, two structural invariants of internal/graph are hard
// feasibility tests: a pattern vertex only maps onto a host vertex whose
// ball profile dominates its own, and a pattern edge only onto a host edge
// that lies on cycles of every length it does. A monomorphism can only
// grow both, so the tests remove nothing but assignments no embedding
// extends: the embeddings found, their order and every distance are the
// same with and without them.
//
// Under a metric with a positive edge-label floor (distance.CostFloors),
// the search also refuses a host vertex whose incident edge labels already
// overspend the budget. Vertices carry eight one-byte counts of their
// incident edges by label mod 8, saturated at 127. None of a pattern
// vertex's edges is priced before it is placed, they map injectively onto
// the host vertex's, and each of the d = Σ max(0, q_b − h_b) that finds no
// host edge of its bucket has another label and costs at least the floor
// (buckets and saturation only shrink d). So a host vertex where acc +
// d·floor exceeds the budget or reaches the best distance found can only
// lead to superpositions that would not change the result. The common
// d = 0 is one SWAR compare. With an integer floor and cost so far below
// 2^53 the bound is exact; otherwise it gives up a relative 1e-9, so no
// float summation order can put it above a superposition's sum.
package iso

import (
	"math"
	"math/bits"

	"pis/internal/distance"
	"pis/internal/graph"
)

// step is one depth of the compiled match order: the pattern vertex
// matched there, what superimposing it costs, and its back edges.
type step struct {
	pv      int32 // pattern vertex matched at this depth
	anchor  int32 // earlier-matched neighbor whose host image is expanded (-1 at the root)
	degree  int32
	profile uint32 // ball profile a host image must dominate
	labels  uint64 // incident edge-label counts; 0 when the label cut is off
	vlabel  graph.VLabel
	vweight float64
	// back lists the pattern edges joining pv to earlier-matched vertices,
	// ascending by pattern edge index: the order costs are summed in.
	back       []backEdge
	anchorBack int // position in back of the edge to anchor
}

// backEdge is a pattern edge from a step's vertex to one matched earlier.
type backEdge struct {
	to     int32 // the earlier-matched pattern vertex
	mask   uint8 // cycle lengths a host image must lie on
	label  graph.ELabel
	weight float64
}

// matchRank appends to rank[:0] one key per pattern vertex that orders
// them highest first by degree, then by the number of cycle lengths
// through the vertex, then by the size of its ball profile: the most
// constrained vertex, where the per-step tests cut the most, is matched
// first. It reads p's invariants whether or not they constrain the match,
// so the plain and the constrained matcher walk the same order.
func matchRank(p *graph.Graph, rank []uint64) []uint64 {
	iv := p.Invariants()
	profiles, masks := iv.Profiles(), iv.EdgeMasks()
	rank = rank[:0]
	for u := range p.N() {
		var cycles uint8
		for _, e := range p.IncidentEdges(u) {
			cycles |= masks[e]
		}
		pr := uint64(profiles[u])
		balls := pr&0xff + pr>>8&0xff + pr>>16&0xff + pr>>24
		rank = append(rank, uint64(p.Degree(u))<<16|uint64(bits.OnesCount8(cycles))<<12|balls)
	}
	return rank
}

// compile computes a connected expansion order for the pattern — after
// the first vertex, each vertex is adjacent to an earlier one — and the
// step table for it, reusing the verifier's previous tables. The root is
// the first vertex of highest rank, each later vertex the first of
// highest rank on the frontier, anchored at the earliest-matched
// neighbor that reaches it. Patterns must be connected and non-empty; the
// caller enforces it. Unconstrained patterns carry the empty invariants,
// which every host satisfies.
func (v *Verifier) compile(p *graph.Graph, constrained bool, rank []uint64) {
	n := p.N()
	var profiles []uint32
	var masks []uint8
	if iv := p.Invariants(); constrained && iv.Exact() {
		profiles, masks = iv.Profiles(), iv.EdgeMasks()
	}
	if cap(v.assign) < n {
		v.assign = make([]int32, n)
	}
	if cap(v.steps) < n {
		v.steps = make([]step, 0, n)
	}
	if cap(v.back) < p.M() {
		v.back = make([]backEdge, 0, p.M())
	}
	// assign doubles as the visited set while compiling: 1 = placed.
	visited := v.assign[:n]
	clear(visited)
	steps, back := v.steps[:0], v.back[:0]
	edges, eweights := graph.Records(p)
	add := func(pv, anchor int32) {
		st := step{pv: pv, anchor: anchor, degree: int32(p.Degree(int(pv))),
			vlabel: p.VLabelAt(int(pv)), vweight: p.VWeightAt(int(pv))}
		if profiles != nil {
			st.profile = profiles[pv]
		}
		lo := len(back)
		for _, e := range p.IncidentEdges(int(pv)) {
			if v.floor > 0 {
				st.labels = countLabel(st.labels, edges[e].Label)
			}
			w := p.Other(int(e), pv)
			if visited[w] == 0 {
				continue
			}
			if w == anchor {
				st.anchorBack = len(back) - lo
			}
			be := backEdge{to: w, label: edges[e].Label, weight: graph.WeightAt(eweights, int(e))}
			if masks != nil {
				be.mask = masks[e]
			}
			back = append(back, be)
		}
		st.back = back[lo:len(back):len(back)]
		visited[pv] = 1
		steps = append(steps, st)
	}
	start := 0
	for u := 1; u < n; u++ {
		if rank[u] > rank[start] {
			start = u
		}
	}
	add(int32(start), -1)
	for len(steps) < n {
		best, bestAnchor := int32(-1), int32(-1)
		for i := range steps {
			u := steps[i].pv
			for _, e := range p.IncidentEdges(int(u)) {
				w := p.Other(int(e), u)
				if visited[w] == 0 && (best < 0 || rank[w] > rank[best]) {
					best, bestAnchor = w, u
				}
			}
		}
		if best < 0 {
			panic("iso: disconnected pattern")
		}
		add(best, bestAnchor)
	}
	v.steps, v.back, v.assign = steps, back, visited
}

// Verifier matches one pattern against many host graphs, amortizing the
// compiled match order and every search buffer across hosts, and — through
// Reset — across patterns. One Verifier serves one goroutine; a
// verification worker pool holds one per worker.
type Verifier struct {
	metric distance.Metric
	blind  bool       // the metric declares VertexCost identically zero
	floor  float64    // the metric's edge-label floor; 0 turns the label cut off
	steps  []step     // empty for the empty pattern: every distance is 0
	back   []backEdge // backing of every step's back list
	rank   []uint64   // matchRank of the pattern
	mp     int        // pattern edge count

	// The bound host and its own arrays (graph.Graph.Adjacency): the
	// neighbors of host vertex hv sit in slots off[hv]..off[hv+1],
	// ascending by host edge index; nbrV[s] is the neighbor, nbrE[s] the
	// edge that reaches it. profile and emask are the host's annotation,
	// per vertex and per edge.
	g          *graph.Graph
	off        []int32
	nbrV, nbrE []int32
	profile    []uint32
	emask      []uint8
	labels     []uint64 // per host vertex, its incident edge-label counts (label cut only)
	assign     []int32  // pattern vertex -> host vertex; valid for matched depths only
	// room[hv] is hv's degree while hv is free and -1 while it carries a
	// pattern vertex: "free and of sufficient degree" is one comparison.
	room []int32

	// One Distance call's branch-and-bound state.
	best, limit float64
	stopped     bool

	// done, when non-nil, aborts in-flight Distance calls once it closes;
	// polled every abortGranule explored nodes, not per node.
	done  <-chan struct{}
	nodes uint64 // branch-and-bound nodes expanded over the verifier's life
}

// labelTop is the high bit of each byte of a label-count word.
const labelTop = 0x8080808080808080

// countLabel adds one edge of label l to a label-count word: its byte
// l mod 8, saturated at 127 so the high bits stay clear.
func countLabel(w uint64, l graph.ELabel) uint64 {
	if sh := uint(l&7) * 8; w>>sh&0x7f != 0x7f {
		w += 1 << sh
	}
	return w
}

// labelDeficit returns Σ max(0, q_b − h_b) over the bytes of two
// label-count words h and q, given t = (h | labelTop) − q: byte b of t is
// 128 + h_b − q_b, with no borrow between bytes, and its high bit is clear
// exactly where q_b > h_b.
func labelDeficit(t uint64) int {
	d := 0
	for m := ^t & labelTop; m != 0; m &= m - 1 {
		d += 128 - int(t>>(bits.TrailingZeros64(m)-7)&0xff)
	}
	return d
}

// abortGranule is the branch-and-bound node count between cancellation
// polls: large enough to vanish in the profile, small enough that an
// abort lands within a fraction of a millisecond of search work.
const abortGranule = 1024

// NewVerifier prepares a verifier for query q under the given metric. q
// must be connected (or empty).
func NewVerifier(q *graph.Graph, metric distance.Metric) *Verifier {
	v := new(Verifier)
	v.Reset(q, metric)
	return v
}

// Reset points the verifier at a new query and metric, keeping its table
// storage, and disarms cancellation.
func (v *Verifier) Reset(q *graph.Graph, metric distance.Metric) { v.reset(q, metric, true) }

// reset is Reset; constrained = false compiles q without its invariants:
// the plain degree-and-adjacency matcher, which the tests hold the
// constrained one to.
func (v *Verifier) reset(q *graph.Graph, metric distance.Metric, constrained bool) {
	v.metric, v.blind, v.mp = metric, distance.IgnoresVertices(metric), q.M()
	_, v.floor = distance.CostFloors(metric)
	v.g, v.off, v.nbrV, v.nbrE = nil, nil, nil, nil
	v.profile, v.emask, v.done = nil, nil, nil
	v.steps = v.steps[:0]
	if q.N() > 0 {
		v.rank = matchRank(q, v.rank)
		v.compile(q, constrained, v.rank)
	}
}

// Nodes returns the branch-and-bound nodes every Distance call so far has
// expanded; callers difference it around the calls they account for.
func (v *Verifier) Nodes() uint64 { return v.nodes }

// bind points the verifier at a host's arrays and marks every vertex free;
// room, and under the label cut the host's label-count words, are the
// only per-host state the verifier owns.
func (v *Verifier) bind(g *graph.Graph) {
	n := g.N()
	if cap(v.room) < n {
		v.room = make([]int32, n)
	}
	v.g = g
	v.off, v.nbrV, v.nbrE = g.Adjacency()
	iv := g.Invariants()
	v.profile, v.emask = iv.Profiles(), iv.EdgeMasks()
	room, off := v.room[:n], v.off
	for hv := range room {
		room[hv] = off[hv+1] - off[hv]
	}
	v.room = room
	if v.floor > 0 {
		if cap(v.labels) < n {
			v.labels = make([]uint64, n)
		}
		labels := v.labels[:n]
		clear(labels)
		edges, _ := graph.Records(g)
		for _, e := range edges {
			labels[e.U] = countLabel(labels[e.U], e.Label)
			labels[e.V] = countLabel(labels[e.V], e.Label)
		}
		v.labels = labels
	}
}

// hostEdge scans hv's slots for the host edge to hw; -1 when not adjacent.
func (v *Verifier) hostEdge(hv, hw int32) int32 {
	for s := v.off[hv]; s < v.off[hv+1]; s++ {
		if v.nbrV[s] == hw {
			return v.nbrE[s]
		}
	}
	return -1
}

// embed enumerates structural embeddings from depth k on, calling visit
// with each complete assignment; visit returning false stops the walk.
func (v *Verifier) embed(k int, visit func(assign []int32) bool) bool {
	if k == len(v.steps) {
		return visit(v.assign)
	}
	st := &v.steps[k]
	// Host candidates: every vertex at the root, else the anchor's slots.
	lo, hi := int32(0), int32(len(v.room))
	if st.anchor >= 0 {
		ha := v.assign[st.anchor]
		lo, hi = v.off[ha], v.off[ha+1]
	}
next:
	for s := lo; s < hi; s++ {
		hv := s
		if st.anchor >= 0 {
			hv = v.nbrV[s]
		}
		deg := v.room[hv]
		if st.degree > deg || !graph.Dominates(v.profile[hv], st.profile) {
			continue
		}
		for i := range st.back {
			he := v.nbrE[s] // the anchor's host edge; back is empty at the root
			if i != st.anchorBack {
				if he = v.hostEdge(hv, v.assign[st.back[i].to]); he < 0 {
					continue next
				}
			}
			if st.back[i].mask&^v.emask[he] != 0 {
				continue next
			}
		}
		v.assign[st.pv], v.room[hv] = hv, -1
		more := v.embed(k+1, visit)
		v.room[hv] = deg
		if !more {
			return false
		}
	}
	return true
}

// HasEmbedding reports whether pattern's structure occurs in host
// (labels ignored). The empty pattern trivially embeds.
func HasEmbedding(pattern, host *graph.Graph) bool {
	found := pattern.N() == 0
	forEachEmbedding(pattern, host, true, func([]int32) bool {
		found = true
		return false
	})
	return found
}

func forEachEmbedding(pattern, host *graph.Graph, constrained bool, fn func(assign []int32) bool) {
	if pattern.N() == 0 || pattern.N() > host.N() || pattern.M() > host.M() {
		return
	}
	v := new(Verifier)
	v.reset(pattern, nil, constrained)
	v.bind(host)
	v.embed(0, fn)
}

// SetDone arms cancellation: after done closes, Distance returns
// distance.Infinite within about one abortGranule of node expansions.
// nil disarms. A canceled Distance is a conservative "not within budget",
// never a wrong finite value.
func (v *Verifier) SetDone(done <-chan struct{}) { v.done = done }

// aborted counts one node and polls the done channel at the amortization
// granule.
func (v *Verifier) aborted() bool {
	v.nodes++
	if v.done == nil || v.nodes&(abortGranule-1) != 0 {
		return false
	}
	select {
	case <-v.done:
		return true
	default:
		return false
	}
}

// Distance computes d(Q,G) of Definition 1: the minimum metric cost over
// all superpositions of Q in G, searched with branch and bound — partial
// superpositions already costlier than both budget and the best found so
// far are cut. It returns distance.Infinite when Q's structure does not
// occur in G or every superposition costs more than budget. Pass budget
// < 0 for an unbounded exact minimum.
func (v *Verifier) Distance(g *graph.Graph, budget float64) float64 {
	if len(v.steps) == 0 {
		return 0
	}
	if len(v.steps) > g.N() || v.mp > g.M() {
		return distance.Infinite
	}
	v.limit = distance.Infinite
	if budget >= 0 {
		v.limit = budget
	}
	v.best, v.stopped = distance.Infinite, false
	v.bind(g)
	v.search(0, 0)
	if v.stopped || v.best > v.limit {
		return distance.Infinite
	}
	return v.best
}

// search extends a partial superposition of cost acc at depth k.
func (v *Verifier) search(k int, acc float64) {
	if v.stopped = v.stopped || v.aborted(); v.stopped {
		return
	}
	if acc > v.limit || acc >= v.best {
		return
	}
	if k == len(v.steps) {
		v.best = acc
		return
	}
	st := &v.steps[k]
	room, profile := v.room, v.profile
	if st.anchor < 0 {
		for hv := range room {
			if st.degree <= room[hv] && graph.Dominates(profile[hv], st.profile) && (st.labels == 0 || v.labelsFit(st.labels, int32(hv), acc)) {
				v.try(k, st, int32(hv), -1, acc)
			}
		}
		return
	}
	// Expanding from the anchor's slots puts the anchor's host edge in hand.
	ha := v.assign[st.anchor]
	nbrV, nbrE := v.nbrV, v.nbrE
	for s, end := v.off[ha], v.off[ha+1]; s < end; s++ {
		if hv := nbrV[s]; st.degree <= room[hv] && graph.Dominates(profile[hv], st.profile) && (st.labels == 0 || v.labelsFit(st.labels, hv, acc)) {
			v.try(k, st, hv, nbrE[s], acc)
		}
	}
}

// labelsFit is the label cut: false when placing a pattern vertex with
// label counts q on hv costs at least acc + d·floor, for hv's label
// deficit d, and that exceeds the budget or reaches the best distance
// found. d = 0, where hv's counts dominate, is one SWAR compare.
func (v *Verifier) labelsFit(q uint64, hv int32, acc float64) bool {
	t := (v.labels[hv] | labelTop) - q
	if t&labelTop == labelTop {
		return true
	}
	bound := acc + float64(labelDeficit(t))*v.floor
	if acc != math.Trunc(acc) || v.floor != math.Trunc(v.floor) || bound >= 1<<53 {
		bound *= 1 - 1e-9 // inexact sums round; the bound must not pass them
	}
	return bound <= v.limit && bound < v.best
}

// try maps step k's pattern vertex onto hv, a free host vertex of
// sufficient degree and ball profile reached over host edge anchorE, and
// descends if that is feasible — every back edge has a host edge on the
// cycles it needs — and within the cut. One pass over the back edges
// settles both. The cost is summed as: vertex cost, then back edges in
// ascending pattern-edge index, then acc + add once; distances depend on
// that order bit for bit.
func (v *Verifier) try(k int, st *step, hv, anchorE int32, acc float64) {
	g := v.g
	edges, ew := graph.Records(g)
	add := 0.0
	if !v.blind {
		add = v.metric.VertexCost(st.vlabel, st.vweight, g.VLabelAt(int(hv)), g.VWeightAt(int(hv)))
	}
	for i := range st.back {
		be := &st.back[i]
		he := anchorE
		if i != st.anchorBack {
			if he = v.hostEdge(hv, v.assign[be.to]); he < 0 {
				return
			}
		}
		if be.mask&^v.emask[he] != 0 {
			return
		}
		add += v.metric.EdgeCost(be.label, be.weight, edges[he].Label, graph.WeightAt(ew, int(he)))
	}
	next := acc + add
	if next > v.limit || next >= v.best {
		return
	}
	deg := v.room[hv]
	v.assign[st.pv], v.room[hv] = hv, -1
	v.search(k+1, next)
	v.room[hv] = deg
}

// MinSuperimposedDistance is the one-shot form of Verifier.Distance; use a
// Verifier when checking one query against many graphs.
func MinSuperimposedDistance(q, g *graph.Graph, metric distance.Metric, budget float64) float64 {
	return NewVerifier(q, metric).Distance(g, budget)
}
