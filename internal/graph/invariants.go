package graph

import (
	"sync"
	"unsafe"
)

// Structural invariants that a monomorphism can only increase. If f maps
// the vertices of Q injectively into G and every edge of Q onto an edge
// of G, then
//
//   - a simple cycle of length k through an edge e of Q maps onto a
//     simple cycle of length k through f(e), so the set of cycle lengths
//     through f(e) contains the set through e;
//   - a path of Q maps onto a path of G, so distances only shrink and the
//     r-ball around v maps injectively into the r-ball around f(v): the
//     host ball is at least as large, for every radius;
//   - both hold in aggregate: G has at least as many edges on a k-cycle
//     as Q, and the i-th largest r-ball of G is at least the i-th largest
//     of Q.
//
// The matcher of internal/iso tests the first two per assignment and the
// search pipeline tests the third per candidate; none of them can refute
// a host that Q embeds in, whatever the labels.

const (
	// minCycle..maxCycle are the simple-cycle lengths an edge mask
	// records, bit k-minCycle for length k.
	minCycle = 3
	maxCycle = 8
	// Ball radii 2..5, one byte each, radius 2 in the low byte; radius 1
	// is the degree, which the matcher tests already.
	minRadius = 2
	maxRadius = 5

	allCycles   = 1<<(maxCycle-minCycle+1) - 1
	ballCap     = 0x7f // saturated ball size: the top bit stays free for Dominates
	allBalls    = 0x7f7f7f7f
	cycleCap    = 0xffff
	invHeader   = 4 // words: flags, then six uint16 edges-on-a-k-cycle counts
	flagInexact = 1
)

// Dominates reports whether every byte of the ball profile host is at
// least the same byte of pattern. Bytes never exceed ballCap, so setting
// the top bit of each host byte keeps the subtraction from borrowing
// across bytes and leaves that bit set exactly where host >= pattern.
func Dominates(host, pattern uint32) bool {
	const top = 0x80808080
	return ((host|top)-pattern)&top == top
}

// Invariants is a view of one graph's cached annotation, a single block
// of words: the header, one ball profile per vertex, the ranked profiles
// (word i packs the i-th largest ball of each radius) and one cycle mask
// per edge, four to a word.
type Invariants struct {
	w    []uint32
	n, m int
}

func invWords(n, m int) int { return invHeader + 2*n + (m+3)/4 }

// Invariants returns g's annotation, computing and caching it on first
// use. Concurrent first uses may each compute it; one result is kept.
func (g *Graph) Invariants() Invariants {
	p := g.inv.Load()
	if p == nil {
		w := computeInvariants(g)
		if g.inv.CompareAndSwap(nil, &w[0]) {
			p = &w[0]
		} else {
			p = g.inv.Load()
		}
	}
	n, m := g.N(), g.M()
	return Invariants{w: unsafe.Slice(p, invWords(n, m)), n: n, m: m}
}

// Exact reports whether the annotation was computed in full. When the
// work budget ran out it holds the permissive value instead — every
// cycle length on every edge, maximal balls — which is what a host needs
// to pass every test; as a pattern such a graph must constrain nothing.
func (iv Invariants) Exact() bool { return iv.w[0]&flagInexact == 0 }

// Profiles returns the ball profile of every vertex.
func (iv Invariants) Profiles() []uint32 { return iv.w[invHeader : invHeader+iv.n] }

func (iv Invariants) ranked() []uint32 { return iv.w[invHeader+iv.n : invHeader+2*iv.n] }

// EdgeMasks returns the cycle-length mask of every edge.
func (iv Invariants) EdgeMasks() []uint8 {
	if iv.m == 0 {
		return nil
	}
	return unsafe.Slice((*uint8)(unsafe.Pointer(&iv.w[invHeader+2*iv.n])), iv.m)
}

// cycleEdges returns the number of edges on a cycle of length minCycle+i,
// saturated at cycleCap.
func (iv Invariants) cycleEdges(i int) uint32 {
	return iv.w[1+i/2] >> (16 * (i % 2)) & cycleCap
}

// Admits reports whether a graph annotated iv can contain a
// monomorphic image of one annotated q: enough vertices and edges,
// enough edges on a cycle of each length, and ranked balls that dominate
// q's rank for rank.
func (iv Invariants) Admits(q Invariants) bool {
	if q.n > iv.n || q.m > iv.m {
		return false
	}
	if !q.Exact() {
		return true
	}
	for i := 0; i <= maxCycle-minCycle; i++ {
		if q.cycleEdges(i) > iv.cycleEdges(i) {
			return false
		}
	}
	host := iv.ranked()
	for i, p := range q.ranked() {
		if !Dominates(host[i], p) {
			return false
		}
	}
	return true
}

// invScratch is the working memory of one annotation pass.
type invScratch struct {
	dist   []int8  // BFS distance from the current source; -1 = farther than maxRadius
	queue  []int32 // BFS order: the vertices to reset afterwards
	onPath []bool
}

var invPool = sync.Pool{New: func() any { return new(invScratch) }}

// invBudget bounds the edge visits one annotation may spend. Sparse
// graphs with few short rings — molecules — use a small fraction of it;
// a dense graph, whose short cycles number in the millions, runs out and
// gets the permissive annotation.
func invBudget(n, m int) int { return 256 * (n + m + 16) }

func computeInvariants(g *Graph) []uint32 {
	n, m := g.N(), g.M()
	w := make([]uint32, invWords(n, m))
	iv := Invariants{w: w, n: n, m: m}
	sc := invPool.Get().(*invScratch)
	defer invPool.Put(sc)
	if len(sc.dist) < n {
		sc.dist = make([]int8, n)
		sc.onPath = make([]bool, n)
		sc.queue = make([]int32, 0, n)
		for i := range sc.dist {
			sc.dist[i] = -1
		}
	}
	a := annotator{g: g, sc: sc, prof: iv.Profiles(), masks: iv.EdgeMasks(), budget: invBudget(n, m)}
	for s := 0; s < n && a.budget >= 0; s++ {
		a.source(int32(s))
	}
	if a.budget < 0 {
		w[0] = flagInexact
		for i := 1; i < invHeader; i++ {
			w[i] = cycleCap<<16 | cycleCap
		}
		for i := invHeader; i < invHeader+2*n; i++ {
			w[i] = allBalls
		}
		for e := range a.masks {
			a.masks[e] = allCycles
		}
		return w
	}
	for _, mask := range a.masks {
		for i := 0; mask != 0; i, mask = i+1, mask>>1 {
			if mask&1 != 0 && iv.cycleEdges(i) < cycleCap {
				w[1+i/2] += 1 << (16 * (i % 2))
			}
		}
	}
	// Rank each radius by counting sort, largest ball first.
	ranked := iv.ranked()
	for shift := 0; shift < 32; shift += 8 {
		var hist [ballCap + 1]int32
		for _, p := range a.prof {
			hist[p>>shift&ballCap]++
		}
		i := 0
		for b := ballCap; b >= 0; b-- {
			for c := hist[b]; c > 0; c-- {
				ranked[i] |= uint32(b) << shift
				i++
			}
		}
	}
	return w
}

// annotator carries one annotation pass.
type annotator struct {
	g      *Graph
	sc     *invScratch
	prof   []uint32
	masks  []uint8
	budget int                 // edge visits left; negative = exhausted
	s      int32               // current source
	path   [maxCycle - 1]int32 // edges of the walk from s
}

// source annotates vertex s: a breadth-first pass to maxRadius sizes its
// balls and leaves the distances in place, then a depth-first walk marks
// every cycle of up to maxCycle edges whose least vertex is s. The walk
// only steps where the distance back to s still fits the length bound,
// so in a sparse graph it hardly leaves the cycles it reports.
func (a *annotator) source(s int32) {
	g, sc := a.g, a.sc
	off, nbrV, _ := g.Adjacency()
	dist, queue := sc.dist, append(sc.queue[:0], s)
	dist[s] = 0
	var balls [maxRadius + 1]uint32 // vertices at exactly distance d
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		d := dist[v]
		balls[d]++
		if d == maxRadius {
			continue
		}
		a.budget -= g.Degree(int(v))
		for _, u := range nbrV[off[v]:off[v+1]] {
			if dist[u] < 0 {
				dist[u] = d + 1
				queue = append(queue, u)
			}
		}
	}
	size, p := balls[0]+balls[1], uint32(0)
	for r := minRadius; r <= maxRadius; r++ {
		size += balls[r]
		p |= min(size, ballCap) << (8 * (r - minRadius))
	}
	a.prof[s] = p
	if g.Degree(int(s)) >= 2 && a.budget >= 0 {
		a.s = s
		sc.onPath[s] = true
		a.walk(s, 0)
		sc.onPath[s] = false
	}
	for _, v := range queue {
		dist[v] = -1
	}
	sc.queue = queue
}

// walk extends the simple path from a.s that ends at v after d edges.
func (a *annotator) walk(v int32, d int) {
	g, sc := a.g, a.sc
	a.budget -= g.Degree(int(v))
	if a.budget < 0 {
		return
	}
	off, nbrV, nbrE := g.Adjacency()
	for s := off[v]; s < off[v+1]; s++ {
		e, u := nbrE[s], nbrV[s]
		if u == a.s {
			if d >= 2 {
				bit := uint8(1) << (d + 1 - minCycle)
				a.masks[e] |= bit
				for _, pe := range a.path[:d] {
					a.masks[pe] |= bit
				}
			}
			continue
		}
		// From u the walk still has to get back to s: d+1 edges so far
		// plus at least dist[u] more.
		if u < a.s || sc.onPath[u] || sc.dist[u] < 0 || d+1+int(sc.dist[u]) > maxCycle {
			continue
		}
		a.path[d] = e
		sc.onPath[u] = true
		a.walk(u, d+1)
		sc.onPath[u] = false
	}
}
