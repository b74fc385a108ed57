package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// bruteMasks marks, by plain depth-first enumeration from every vertex,
// the lengths minCycle..maxCycle of the simple cycles through each edge.
func bruteMasks(g *Graph) []uint8 {
	masks := make([]uint8, g.M())
	onPath := make([]bool, g.N())
	var path []int32
	var walk func(s, v int32)
	walk = func(s, v int32) {
		for _, e := range g.IncidentEdges(int(v)) {
			u := g.Other(int(e), v)
			if u == s && len(path) >= 2 && len(path) < maxCycle {
				for _, pe := range append(path, e) {
					masks[pe] |= 1 << (len(path) + 1 - minCycle)
				}
			}
			if onPath[u] || len(path) == maxCycle-1 {
				continue
			}
			onPath[u] = true
			path = append(path, e)
			walk(s, u)
			path = path[:len(path)-1]
			onPath[u] = false
		}
	}
	for s := int32(0); int(s) < g.N(); s++ {
		onPath[s] = true
		walk(s, s)
		onPath[s] = false
	}
	return masks
}

// bruteProfile sizes the balls around v from all-pairs distances.
func bruteProfile(g *Graph, v int) uint32 {
	const far = 1 << 20
	n := g.N()
	d := make([]int, n)
	for i := range d {
		d[i] = far
	}
	d[v] = 0
	for round := 0; round < n; round++ {
		for _, e := range g.Edges() {
			d[e.U] = min(d[e.U], d[e.V]+1)
			d[e.V] = min(d[e.V], d[e.U]+1)
		}
	}
	var p uint32
	for r := minRadius; r <= maxRadius; r++ {
		size := 0
		for _, x := range d {
			if x <= r {
				size++
			}
		}
		p |= uint32(min(size, ballCap)) << (8 * (r - minRadius))
	}
	return p
}

func randomGraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddVertex(0)
	}
	seen := map[[2]int32]bool{}
	for i := 0; i < m; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u > v {
			u, v = v, u
		}
		if u != v && !seen[[2]int32{u, v}] {
			seen[[2]int32{u, v}] = true
			b.AddEdge(u, v, 0)
		}
	}
	return b.MustBuild()
}

func complete(n int) *Graph {
	b := NewBuilder(n, n*(n-1)/2)
	for i := 0; i < n; i++ {
		b.AddVertex(0)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(int32(u), int32(v), 0)
		}
	}
	return b.MustBuild()
}

func TestInvariantsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		g := randomGraph(rng, n, rng.Intn(n+5)) // sparse: disconnected, trees, a few rings
		iv := g.Invariants()
		if !iv.Exact() {
			t.Fatalf("trial %d: %v ran out of budget", trial, g)
		}
		masks := bruteMasks(g)
		if got := iv.EdgeMasks(); !slices.Equal(got, masks) {
			t.Fatalf("trial %d: masks %06b, brute force %06b\n%v", trial, got, masks, g)
		}
		var onCycle [maxCycle - minCycle + 1]uint32
		for _, m := range masks {
			for i := range onCycle {
				onCycle[i] += uint32(m >> i & 1)
			}
		}
		for i, want := range onCycle {
			if got := iv.cycleEdges(i); got != want {
				t.Fatalf("trial %d: %d edges on a %d-cycle, brute force %d\n%v", trial, got, minCycle+i, want, g)
			}
		}
		for v, got := range iv.Profiles() {
			if want := bruteProfile(g, v); got != want {
				t.Fatalf("trial %d: vertex %d profile %08x, brute force %08x\n%v", trial, v, got, want, g)
			}
		}
		// Each radius of the ranked profiles is that radius of the
		// vertex profiles, descending.
		for shift := 0; shift < 32; shift += 8 {
			var col, rank []uint32
			for i, p := range iv.Profiles() {
				col, rank = append(col, p>>shift&0xff), append(rank, iv.ranked()[i]>>shift&0xff)
			}
			slices.Sort(col)
			slices.Reverse(col)
			if !slices.Equal(col, rank) {
				t.Fatalf("trial %d: ranked byte %d = %v, want %v", trial, shift/8, rank, col)
			}
		}
		if !iv.Admits(iv) {
			t.Fatalf("trial %d: a graph must admit itself\n%v", trial, g)
		}
	}
}

// TestInvariantsFusedRings pins the masks of the ring systems molecules
// are made of: a lone ring carries its own length, a fused pair adds the
// perimeter on the outer edges and both ring lengths on the shared one.
func TestInvariantsFusedRings(t *testing.T) {
	fused := func(a, b int) *Graph { // an a-ring and a b-ring sharing edge 0-1
		bl := NewBuilder(a+b-2, a+b-1)
		for i := 0; i < a+b-2; i++ {
			bl.AddVertex(0)
		}
		for i := 0; i < a; i++ {
			bl.AddEdge(int32(i), int32((i+1)%a), 0)
		}
		prev := int32(1)
		for i := a; i < a+b-2; i++ {
			bl.AddEdge(prev, int32(i), 0)
			prev = int32(i)
		}
		bl.AddEdge(prev, 0, 0)
		return bl.MustBuild()
	}
	bit := func(ks ...int) (m uint8) {
		for _, k := range ks {
			m |= 1 << (k - minCycle)
		}
		return m
	}
	for _, tc := range []struct {
		a, b               int
		shared, inA, onlyB uint8
		description        string
	}{
		{5, 6, bit(5, 6), bit(5), bit(6), "5-6: the 9-perimeter is out of range"},
		{5, 5, bit(5), bit(5, 8), bit(5, 8), "5-5: perimeter 8"},
		{4, 6, bit(4, 6), bit(4, 8), bit(6, 8), "4-6: perimeter 8"},
		{6, 6, bit(6), bit(6), bit(6), "6-6: the 10-perimeter is out of range"},
	} {
		g := fused(tc.a, tc.b)
		masks := g.Invariants().EdgeMasks()
		for e, ed := range g.Edges() {
			want := tc.inA
			switch {
			case ed.U == 0 && ed.V == 1:
				want = tc.shared
			case e >= tc.a:
				want = tc.onlyB
			}
			if masks[e] != want {
				t.Errorf("%s: edge %d-%d mask %06b, want %06b", tc.description, ed.U, ed.V, masks[e], want)
			}
		}
	}
	if hex, pent := cycle(6, 0, 0).Invariants(), cycle(5, 0, 0).Invariants(); hex.Admits(pent) || pent.Admits(hex) {
		t.Error("a lone 5-ring and a lone 6-ring must refute each other")
	}
	if big, small := fused(6, 6).Invariants(), path(3, 0, 0).Invariants(); !big.Admits(small) || small.Admits(big) {
		t.Error("a fused ring system admits a short path and not the reverse")
	}
}

// TestInvariantsBudgetOverflow covers the fallback: a dense graph gives up
// within its budget and then passes every test as a host and imposes none
// as a pattern.
func TestInvariantsBudgetOverflow(t *testing.T) {
	k12 := complete(12)
	iv := k12.Invariants()
	if iv.Exact() {
		t.Fatal("K12 has millions of short cycles: the budget must run out")
	}
	for e, m := range iv.EdgeMasks() {
		if m != allCycles {
			t.Fatalf("edge %d mask %06b, want every length", e, m)
		}
	}
	for v, p := range iv.Profiles() {
		if !Dominates(p, allBalls) {
			t.Fatalf("vertex %d profile %08x, want maximal", v, p)
		}
	}
	k5 := complete(5).Invariants()
	if !k5.Exact() {
		t.Fatal("K5 fits the budget")
	}
	if !iv.Admits(k5) {
		t.Error("permissive K12 must admit K5")
	}
	if !iv.Admits(iv) {
		t.Error("an inexact pattern must constrain nothing")
	}
	if k5.Admits(iv) {
		t.Error("K12 has more vertices than K5")
	}
}

func TestDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		h, p := rng.Uint32()&allBalls, rng.Uint32()&allBalls
		if i%3 == 0 {
			p = h - uint32(rng.Intn(2))<<(8*rng.Intn(4))&h // often equal or one byte lower
		}
		want := true
		for s := 0; s < 32; s += 8 {
			want = want && h>>s&0xff >= p>>s&0xff
		}
		if got := Dominates(h, p); got != want {
			t.Fatalf("Dominates(%08x, %08x) = %v", h, p, got)
		}
	}
}

// TestInvariantsConcurrentFirstUse is for the race detector: first use of
// one graph from many goroutines computes concurrently and settles on one
// block.
func TestInvariantsConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 30, 36)
		want := append([]uint32(nil), g.Clone().Invariants().w...)
		var wg sync.WaitGroup
		got := make([]Invariants, 8)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = g.Invariants()
			}()
		}
		wg.Wait()
		for i, iv := range got {
			if &iv.w[0] != &got[0].w[0] {
				t.Fatalf("goroutine %d got its own block", i)
			}
			if !slices.Equal(iv.w, want) {
				t.Fatalf("goroutine %d: %v, want %v", i, iv.w, want)
			}
		}
	}
}

// TestInvariantsFootprint holds the annotation to its size budget: at
// most 8 B a vertex, 1 B an edge and 32 B. BenchmarkGraphInvariants shows
// it is one allocation (the scratch is pooled).
func TestInvariantsFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []*Graph{new(Graph), path(1, 0, 0), randomGraph(rng, 40, 44), complete(12)} {
		if got, limit := 4*len(computeInvariants(g)), 8*g.N()+g.M()+32; got > limit {
			t.Errorf("n=%d m=%d: annotation is %d B, limit %d B", g.N(), g.M(), got, limit)
		}
	}
}
