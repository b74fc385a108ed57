package iso

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
)

// CountEmbeddings returns the number of structural embeddings (counting
// each injective vertex mapping once).
func CountEmbeddings(pattern, host *graph.Graph) int {
	n := 0
	ForEachEmbedding(pattern, host, func([]int32) bool {
		n++
		return true
	})
	return n
}

// Isomorphic reports whether two graphs have identical structure and size
// (mutual subgraph isomorphism shortcut: same vertex/edge count plus an
// embedding in one direction).
func Isomorphic(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	return HasEmbedding(a, b)
}

func cycle(n int, el graph.ELabel) *graph.Graph {
	b := graph.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.AddVertex(0)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n), el)
	}
	return b.MustBuild()
}

func pathG(n int, el graph.ELabel) *graph.Graph {
	b := graph.NewBuilder(n+1, n)
	for i := 0; i <= n; i++ {
		b.AddVertex(0)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32(i+1), el)
	}
	return b.MustBuild()
}

func TestHasEmbeddingBasics(t *testing.T) {
	hex := cycle(6, 1)
	if !HasEmbedding(pathG(3, 0), hex) {
		t.Error("path3 should embed in hexagon")
	}
	if HasEmbedding(cycle(5, 0), hex) {
		t.Error("pentagon must not embed in hexagon")
	}
	if !HasEmbedding(cycle(6, 0), hex) {
		t.Error("hexagon should embed in itself")
	}
	if HasEmbedding(cycle(7, 0), hex) {
		t.Error("larger pattern embedded in smaller host")
	}
}

func TestCountEmbeddings(t *testing.T) {
	hex := cycle(6, 0)
	// A 6-cycle has 12 automorphic self-embeddings.
	if n := CountEmbeddings(cycle(6, 0), hex); n != 12 {
		t.Errorf("hexagon self embeddings = %d, want 12", n)
	}
	// Single edge in a hexagon: 6 edges x 2 orientations.
	if n := CountEmbeddings(pathG(1, 0), hex); n != 12 {
		t.Errorf("edge embeddings = %d, want 12", n)
	}
	// Triangle cannot embed.
	if n := CountEmbeddings(cycle(3, 0), hex); n != 0 {
		t.Errorf("triangle embeddings = %d, want 0", n)
	}
}

func TestEmbeddingsAreValid(t *testing.T) {
	host := cycle(6, 0)
	pat := pathG(2, 0)
	ForEachEmbedding(pat, host, func(assign []int32) bool {
		seen := map[int32]bool{}
		for _, hv := range assign {
			if seen[hv] {
				t.Fatal("non-injective assignment")
			}
			seen[hv] = true
		}
		for _, e := range pat.Edges() {
			if host.EdgeBetween(assign[e.U], assign[e.V]) < 0 {
				t.Fatal("pattern edge not realized")
			}
		}
		return true
	})
}

func TestNonInducedSemantics(t *testing.T) {
	// Pattern path 0-1-2 must embed into a triangle even though the
	// triangle has the extra chord (monomorphism, not induced).
	tri := cycle(3, 0)
	if !HasEmbedding(pathG(2, 0), tri) {
		t.Error("path2 should embed (non-induced) in a triangle")
	}
}

// buildLabeledHexagon returns a 6-cycle with the given edge labels.
func buildLabeledHexagon(labels [6]graph.ELabel) *graph.Graph {
	b := graph.NewBuilder(6, 6)
	for i := 0; i < 6; i++ {
		b.AddVertex(0)
	}
	for i := 0; i < 6; i++ {
		b.AddEdge(int32(i), int32((i+1)%6), labels[i])
	}
	return b.MustBuild()
}

func TestMinSuperimposedDistanceExact(t *testing.T) {
	metric := distance.EdgeMutation{}
	q := buildLabeledHexagon([6]graph.ELabel{1, 1, 1, 1, 1, 1})
	// One mismatching edge label somewhere in the ring: best superposition
	// costs exactly 1 regardless of rotation.
	g := buildLabeledHexagon([6]graph.ELabel{1, 1, 2, 1, 1, 1})
	if d := MinSuperimposedDistance(q, g, metric, -1); d != 1 {
		t.Errorf("d = %v, want 1", d)
	}
	// Identical labels: 0.
	if d := MinSuperimposedDistance(q, q, metric, -1); d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
	// Structure missing entirely.
	if d := MinSuperimposedDistance(cycle(5, 1), g, metric, -1); !distance.IsInfinite(d) {
		t.Errorf("pentagon in hexagon = %v, want Infinite", d)
	}
}

func TestMinSuperimposedDistanceBudget(t *testing.T) {
	metric := distance.EdgeMutation{}
	q := buildLabeledHexagon([6]graph.ELabel{1, 1, 1, 1, 1, 1})
	g := buildLabeledHexagon([6]graph.ELabel{2, 2, 2, 1, 1, 1})
	exact := MinSuperimposedDistance(q, g, metric, -1)
	if exact != 3 {
		t.Fatalf("exact = %v, want 3", exact)
	}
	if d := MinSuperimposedDistance(q, g, metric, 2); !distance.IsInfinite(d) {
		t.Errorf("budget 2 should report Infinite, got %v", d)
	}
	if d := MinSuperimposedDistance(q, g, metric, 3); d != 3 {
		t.Errorf("budget 3 should find 3, got %v", d)
	}
}

func TestMinSuperimposedDistanceLinear(t *testing.T) {
	metric := distance.Linear{}
	b := graph.NewBuilder(3, 2)
	for i := 0; i < 3; i++ {
		b.AddVertex(0)
	}
	b.AddWeightedEdge(0, 1, 0, 1.0)
	b.AddWeightedEdge(1, 2, 0, 2.0)
	q := b.MustBuild()

	b = graph.NewBuilder(4, 3)
	for i := 0; i < 4; i++ {
		b.AddVertex(0)
	}
	b.AddWeightedEdge(0, 1, 0, 1.5)
	b.AddWeightedEdge(1, 2, 0, 2.5)
	b.AddWeightedEdge(2, 3, 0, 1.25)
	g := b.MustBuild()
	// Path-in-path superpositions: {1.5,2.5} or {2.5,1.25} in two
	// orientations each. Costs: |1-1.5|+|2-2.5| = 1.0; |1-2.5|+|2-1.5| = 2.0;
	// |1-2.5|+|2-1.25| = 2.25; |1-1.25|+|2-2.5| = 0.75.
	if d := MinSuperimposedDistance(q, g, metric, -1); d != 0.75 {
		t.Errorf("linear distance = %v, want 0.75", d)
	}
}

// randomMolecule builds a sparse random connected labeled graph.
func randomMolecule(rng *rand.Rand, n int, elabels int) *graph.Graph {
	b := graph.NewBuilder(n, n+2)
	for i := 0; i < n; i++ {
		b.AddVertex(0)
	}
	for i := 1; i < n; i++ {
		b.AddEdge(int32(rng.Intn(i)), int32(i), graph.ELabel(rng.Intn(elabels)))
	}
	g := b.MustBuild()
	return g
}

func TestMinDistanceMatchesBruteForce(t *testing.T) {
	metric := distance.EdgeMutation{}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		g := randomMolecule(rng, 5+rng.Intn(4), 3)
		q := randomMolecule(rng, 3+rng.Intn(2), 3)
		// Brute force over all embeddings.
		best := distance.Infinite
		ForEachEmbedding(q, g, func(assign []int32) bool {
			if c := superpositionCost(q, g, assign, metric); c < best {
				best = c
			}
			return true
		})
		got := MinSuperimposedDistance(q, g, metric, -1)
		if got != best {
			t.Fatalf("trial %d: B&B=%v brute=%v", trial, got, best)
		}
	}
}

func TestIsomorphic(t *testing.T) {
	if !Isomorphic(cycle(6, 0), cycle(6, 0)) {
		t.Error("hexagons should be isomorphic")
	}
	if Isomorphic(cycle(6, 0), pathG(6, 0)) {
		t.Error("cycle vs path misreported isomorphic")
	}
}

func BenchmarkHasEmbeddingPathInRing(b *testing.B) {
	host := cycle(24, 0)
	pat := pathG(8, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HasEmbedding(pat, host)
	}
}

func BenchmarkMinSuperimposedDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	host := randomMolecule(rng, 25, 3)
	pat := randomMolecule(rng, 8, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinSuperimposedDistance(pat, host, distance.EdgeMutation{}, 4)
	}
}

func TestQuickEmbeddingsAlwaysValid(t *testing.T) {
	// Property: every reported embedding is injective and edge-preserving,
	// and HasEmbedding agrees with CountEmbeddings > 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		host := randomMolecule(rng, 4+rng.Intn(6), 2)
		pat := randomMolecule(rng, 2+rng.Intn(3), 2)
		ok := true
		count := 0
		ForEachEmbedding(pat, host, func(assign []int32) bool {
			count++
			seen := map[int32]bool{}
			for _, hv := range assign {
				if seen[hv] {
					ok = false
				}
				seen[hv] = true
			}
			for _, e := range pat.Edges() {
				if host.EdgeBetween(assign[e.U], assign[e.V]) < 0 {
					ok = false
				}
			}
			return ok
		})
		return ok && (count > 0) == HasEmbedding(pat, host)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickDistanceSymmetryOnIsomorphs(t *testing.T) {
	// Property: for same-size graphs where both embed into each other,
	// the superimposed distance is symmetric (mutation costs are).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMolecule(rng, 5, 3)
		// b is a relabeled copy of a with the same structure.
		bb := graph.NewBuilder(a.N(), a.M())
		for i := 0; i < a.N(); i++ {
			bb.AddVertex(a.VLabelAt(i))
		}
		for _, e := range a.Edges() {
			bb.AddEdge(e.U, e.V, graph.ELabel(rng.Intn(3)))
		}
		b := bb.MustBuild()
		m := distance.EdgeMutation{}
		return MinSuperimposedDistance(a, b, m, -1) == MinSuperimposedDistance(b, a, m, -1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// refPlan is the match order of the reference kernel: the closure-based
// branch and bound this package shipped before the table-driven one,
// kept as the oracle the new kernel must equal bit for bit. Its order
// ranks vertices by the kernel's own matchRank, since the summation order
// follows the match order.
type refPlan struct {
	p      *graph.Graph
	order  []int32 // pattern vertices in match order (connected expansion)
	porder []int32 // for order[k], a previously matched neighbor anchor (or -1)
}

func newRefPlan(p *graph.Graph) *refPlan {
	pl := &refPlan{p: p}
	n := p.N()
	rank := matchRank(p, nil)
	visited := make([]bool, n)
	start := 0
	for v := 1; v < n; v++ {
		if rank[v] > rank[start] {
			start = v
		}
	}
	pl.order = append(pl.order, int32(start))
	pl.porder = append(pl.porder, -1)
	visited[start] = true
	for len(pl.order) < n {
		best := int32(-1)
		var bestAnchor int32
		for _, u := range pl.order {
			for _, e := range p.IncidentEdges(int(u)) {
				w := p.Other(int(e), u)
				if !visited[w] && (best < 0 || rank[w] > rank[best]) {
					best, bestAnchor = w, u
				}
			}
		}
		if best < 0 {
			panic("iso: disconnected pattern")
		}
		visited[best] = true
		pl.order = append(pl.order, best)
		pl.porder = append(pl.porder, bestAnchor)
	}
	return pl
}

// referenceDistance is Verifier.Distance as of the parent commit, on a
// fresh verifier (node counter at zero) with done as its SetDone channel.
func referenceDistance(q, g *graph.Graph, metric distance.Metric, budget float64, done <-chan struct{}) float64 {
	if q.N() == 0 {
		return 0
	}
	if q.N() > g.N() || q.M() > g.M() {
		return distance.Infinite
	}
	limit := distance.Infinite
	if budget >= 0 {
		limit = budget
	}
	best := distance.Infinite
	pl := newRefPlan(q)
	assign := make([]int32, q.N())
	for i := range assign {
		assign[i] = -1
	}
	usedHost := make([]bool, g.N())
	feasible := func(pv, hv int32) bool {
		if usedHost[hv] {
			return false
		}
		if q.Degree(int(pv)) > g.Degree(int(hv)) {
			return false
		}
		for _, e := range q.IncidentEdges(int(pv)) {
			w := q.Other(int(e), pv)
			hw := assign[w]
			if hw >= 0 && g.EdgeBetween(hv, hw) < 0 {
				return false
			}
		}
		return true
	}
	var nodes uint64
	aborted := func() bool {
		if done == nil {
			return false
		}
		nodes++
		if nodes&(abortGranule-1) != 0 {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	stopped := false
	var rec func(k int, acc float64)
	rec = func(k int, acc float64) {
		if stopped {
			return
		}
		if aborted() {
			stopped = true
			return
		}
		if acc > limit || acc >= best {
			return
		}
		if k == len(pl.order) {
			if acc < best {
				best = acc
			}
			return
		}
		pv := pl.order[k]
		try := func(hv int32) {
			if !feasible(pv, hv) {
				return
			}
			add := metric.VertexCost(q.VLabelAt(int(pv)), q.VWeightAt(int(pv)),
				g.VLabelAt(int(hv)), g.VWeightAt(int(hv)))
			for _, e := range q.IncidentEdges(int(pv)) {
				w := q.Other(int(e), pv)
				hw := assign[w]
				if hw < 0 {
					continue
				}
				qe := q.EdgeAt(int(e))
				he := g.EdgeAt(g.EdgeBetween(hv, hw))
				add += metric.EdgeCost(qe.Label, qe.Weight, he.Label, he.Weight)
			}
			next := acc + add
			if next > limit || next >= best {
				return
			}
			assign[pv] = hv
			usedHost[hv] = true
			rec(k+1, next)
			assign[pv] = -1
			usedHost[hv] = false
		}
		if anchor := pl.porder[k]; anchor >= 0 {
			ha := assign[anchor]
			for _, e := range g.IncidentEdges(int(ha)) {
				try(g.Other(int(e), ha))
			}
			return
		}
		for hv := int32(0); hv < int32(g.N()); hv++ {
			try(hv)
		}
	}
	rec(0, 0)
	if stopped || best > limit {
		return distance.Infinite
	}
	return best
}

// growGraph builds a connected graph with vertex and edge labels in 0..2
// and weights on both — every input the metrics under test read — from
// the decisions intn and weight deal. It starts from a relabeled,
// reweighted copy of sub's structure (nil for none), so a host grown
// around a query contains the query's rings, then grows to n vertices as
// a tree and closes up to extra more rings.
func growGraph(intn func(n int) int, weight func() float64, sub *graph.Graph, n, extra int) *graph.Graph {
	b := graph.NewBuilder(n, n+extra)
	for i := 0; i < n; i++ {
		b.AddWeightedVertex(graph.VLabel(intn(3)), weight())
	}
	seen := map[[2]int32]bool{}
	edge := func(u, v int32) {
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int32{u, v}] {
			return
		}
		seen[[2]int32{u, v}] = true
		b.AddWeightedEdge(u, v, graph.ELabel(intn(3)), weight())
	}
	first := 1
	if sub != nil {
		for _, e := range sub.Edges() {
			edge(e.U, e.V)
		}
		first = sub.N()
	}
	for i := first; i < n; i++ {
		edge(int32(intn(i)), int32(i))
	}
	for i := 0; i < extra; i++ {
		edge(int32(intn(n)), int32(intn(n)))
	}
	return b.MustBuild()
}

// randomWeighted is growGraph on a seeded source with non-integer weights.
func randomWeighted(rng *rand.Rand, sub *graph.Graph, n, extra int) *graph.Graph {
	return growGraph(rng.Intn, func() float64 { return rng.Float64() * 3 }, sub, n, extra)
}

// fractionalMatrix is a mutation score matrix whose sums do not round to
// the same float64 in every order.
func fractionalMatrix() *distance.Matrix {
	m := distance.NewMatrix()
	m.DefaultCost = 0.7
	m.SetVertexScore(0, 1, 0.1)
	m.SetVertexScore(1, 2, 0.35)
	m.SetEdgeScore(0, 1, 0.2)
	m.SetEdgeScore(0, 2, 0.3)
	return m
}

var (
	kernelMetrics = []distance.Metric{
		distance.EdgeMutation{}, distance.FullMutation{}, fractionalMatrix(),
		distance.Linear{}, distance.Linear{IncludeVertices: true},
	}
	kernelBudgets = []float64{-1, 0, 0.5, 1, 2, 4}
)

// TestDistanceMatchesReferenceKernel is the differential for the
// table-driven kernel: equal to the closure kernel with == on float64,
// for every metric family and budget, through verifiers reused across
// hosts that grow and shrink (scratch reuse) and hosts smaller than the
// query.
func TestDistanceMatchesReferenceKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 40; trial++ {
		q := randomWeighted(rng, nil, 2+rng.Intn(7), rng.Intn(4))
		hosts := []*graph.Graph{
			randomWeighted(rng, nil, 6+rng.Intn(6), rng.Intn(4)),
			randomWeighted(rng, q, 30+rng.Intn(20), 2+rng.Intn(8)),
			randomWeighted(rng, nil, 1+rng.Intn(q.N()), 0), // may be smaller than q
			randomWeighted(rng, q, q.N()+rng.Intn(8), rng.Intn(6)),
			q,
		}
		for mi, metric := range kernelMetrics {
			v := NewVerifier(q, metric)
			for hi, g := range hosts {
				for _, budget := range kernelBudgets {
					got, want := v.Distance(g, budget), referenceDistance(q, g, metric, budget, nil)
					if got != want {
						t.Fatalf("trial %d metric %d host %d budget %g: kernel=%v reference=%v\nq=%v\ng=%v",
							trial, mi, hi, budget, got, want, q, g)
					}
				}
			}
		}
	}
}

// fusedRings builds an a-ring and a b-ring sharing one edge — the
// perimeter cycle 0..a+b-3 plus the chord 0-(a-1) — with tail more
// vertices hung off random ring atoms, labeled and weighted like
// growGraph's graphs.
func fusedRings(rng *rand.Rand, a, b, tail int) *graph.Graph {
	ring := a + b - 2
	bl := graph.NewBuilder(ring+tail, ring+1+tail)
	for i := 0; i < ring+tail; i++ {
		bl.AddWeightedVertex(graph.VLabel(rng.Intn(3)), rng.Float64()*3)
	}
	edge := func(u, v int) {
		bl.AddWeightedEdge(int32(u), int32(v), graph.ELabel(rng.Intn(3)), rng.Float64()*3)
	}
	for i := 0; i < ring; i++ {
		edge(i, (i+1)%ring)
	}
	edge(0, a-1)
	for i := ring; i < ring+tail; i++ {
		edge(rng.Intn(i), i)
	}
	return bl.MustBuild()
}

func complete(n int) *graph.Graph {
	b := graph.NewBuilder(n, n*(n-1)/2)
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

// checkAdmissible holds the invariants to what makes them safe as hard
// constraints. Every embedding the plain matcher (invariants off) finds
// maps each pattern edge onto a host edge on at least the same cycle
// lengths and each pattern vertex onto a host vertex with balls at least
// as large, and the host's aggregates admit the pattern's; so the
// constrained matcher visits the same embeddings in the same order.
func checkAdmissible(t *testing.T, q, g *graph.Graph) (embeddings int) {
	t.Helper()
	const maxChecked = 6000 // embeddings looked at per pair
	qi, gi := q.Invariants(), g.Invariants()
	var plain [][]int32
	forEachEmbedding(q, g, false, func(assign []int32) bool {
		plain = append(plain, append([]int32(nil), assign...))
		if !qi.Exact() {
			return len(plain) < maxChecked
		}
		for e, qe := range q.Edges() {
			he := g.EdgeBetween(assign[qe.U], assign[qe.V])
			if qm, hm := qi.EdgeMasks()[e], gi.EdgeMasks()[he]; qm&^hm != 0 {
				t.Fatalf("pattern edge %d-%d on cycles %06b maps onto host edge on %06b\nq=%v\ng=%v", qe.U, qe.V, qm, hm, q, g)
			}
		}
		for pv, hv := range assign {
			if qp, hp := qi.Profiles()[pv], gi.Profiles()[hv]; !graph.Dominates(hp, qp) {
				t.Fatalf("pattern vertex %d with balls %08x maps onto host vertex %d with %08x\nq=%v\ng=%v", pv, qp, hv, hp, q, g)
			}
		}
		return len(plain) < maxChecked
	})
	if len(plain) > 0 && !gi.Admits(qi) {
		t.Fatalf("aggregates refute a host with %d embeddings\nq=%v\ng=%v", len(plain), q, g)
	}
	i := 0
	ForEachEmbedding(q, g, func(assign []int32) bool {
		if i == len(plain) || !slices.Equal(assign, plain[i]) {
			t.Fatalf("constrained embedding %d = %v is not the plain matcher's\nq=%v\ng=%v", i, assign, q, g)
		}
		i++
		return i < maxChecked
	})
	if i != len(plain) {
		t.Fatalf("constrained matcher found %d embeddings, plain %d\nq=%v\ng=%v", i, len(plain), q, g)
	}
	return len(plain)
}

// TestInvariantsAdmissible is the property test for the hard constraints
// over ringed and fused queries, hosts grown around them and unrelated
// hosts; on the same pairs every metric and budget of the reference
// table equals the reference kernel, which walks the same match order,
// bit for bit.
func TestInvariantsAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	rings := [][2]int{{5, 6}, {6, 6}, {5, 5}, {4, 6}, {3, 5}, {6, 7}}
	embedded, refuted := 0, 0
	for trial := 0; trial < 60; trial++ {
		var q *graph.Graph
		if r := rings[trial%len(rings)]; trial%2 == 0 {
			q = fusedRings(rng, r[0], r[1], rng.Intn(3))
		} else {
			q = randomWeighted(rng, nil, 4+rng.Intn(6), 1+rng.Intn(3))
		}
		r := rings[rng.Intn(len(rings))]
		hosts := []*graph.Graph{
			randomWeighted(rng, q, q.N()+rng.Intn(10), rng.Intn(5)),
			randomWeighted(rng, q, q.N()+2+rng.Intn(4), 0),
			randomWeighted(rng, nil, 12+rng.Intn(10), 2+rng.Intn(5)),
			fusedRings(rng, r[0], r[1], 4+rng.Intn(6)),
			q,
		}
		for hi, g := range hosts {
			n := checkAdmissible(t, q, g)
			if n > 0 {
				embedded++
			} else if !g.Invariants().Admits(q.Invariants()) {
				refuted++
			}
			if n > 200 || trial%4 != 0 {
				continue // the reference kernel is slow; a quarter of the trials carry the table
			}
			for mi, metric := range kernelMetrics {
				v := NewVerifier(q, metric)
				for _, budget := range kernelBudgets {
					if got, want := v.Distance(g, budget), referenceDistance(q, g, metric, budget, nil); got != want {
						t.Fatalf("trial %d metric %d host %d budget %g: kernel=%v reference=%v\nq=%v\ng=%v",
							trial, mi, hi, budget, got, want, q, g)
					}
				}
			}
		}
	}
	if embedded < 100 || refuted < 20 {
		t.Errorf("vacuous: %d pairs with an embedding, %d refuted by the aggregates", embedded, refuted)
	}
}

// TestInvariantsDenseFallback covers the budget overflow: K12 is too
// dense to annotate, so as a host it is permissive and as a query it
// constrains nothing, and both still match like the reference.
func TestInvariantsDenseFallback(t *testing.T) {
	k12 := complete(12)
	if k12.Invariants().Exact() {
		t.Fatal("K12 must overflow the annotation budget")
	}
	rng := rand.New(rand.NewSource(12))
	metric := distance.EdgeMutation{}
	for _, q := range []*graph.Graph{fusedRings(rng, 5, 6, 2), complete(4), cycle(8, 1)} {
		if !HasEmbedding(q, k12) {
			t.Errorf("%v must embed in K12", q)
		}
		if got, want := MinSuperimposedDistance(q, k12, metric, 1), referenceDistance(q, k12, metric, 1, nil); got != want {
			t.Errorf("into K12: kernel=%v reference=%v for %v", got, want, q)
		}
	}
	if d := MinSuperimposedDistance(k12, k12, metric, 0); d != 0 {
		t.Errorf("d(K12, K12) = %v, want 0", d)
	}
	if k7 := complete(7); k7.Invariants().Exact() || checkAdmissible(t, complete(6), k7) != 7*6*5*4*3*2 {
		t.Error("exact K6 must embed in inexact K7 once per injection")
	}
	checkAdmissible(t, complete(7), complete(8))
	sparse := randomWeighted(rng, nil, 90, 12)
	if d := MinSuperimposedDistance(k12, sparse, metric, -1); !distance.IsInfinite(d) {
		t.Errorf("K12 in a sparse host = %v, want Infinite", d)
	}
}

// TestVerifierReset reuses one verifier across queries and metrics, the
// way the search pipeline pools them: each reset must leave nothing of
// the previous pattern, its node count or its done channel behind.
func TestVerifierReset(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	done := make(chan struct{})
	close(done)
	v := new(Verifier)
	for trial := 0; trial < 40; trial++ {
		q := randomWeighted(rng, nil, 1+rng.Intn(9), rng.Intn(4))
		g := randomWeighted(rng, q, q.N()+rng.Intn(30), rng.Intn(6))
		if trial%7 == 0 {
			q = graph.NewBuilder(0, 0).MustBuild()
		}
		metric := kernelMetrics[trial%len(kernelMetrics)]
		v.Reset(q, metric)
		before := v.Nodes()
		if got, want := v.Distance(g, 2), referenceDistance(q, g, metric, 2, nil); got != want {
			t.Fatalf("trial %d: reused verifier=%v reference=%v\nq=%v\ng=%v", trial, got, want, q, g)
		}
		if q.N() > 0 && v.Nodes() == before {
			t.Fatalf("trial %d: a search expanded no node", trial)
		}
		v.SetDone(done) // must not outlive the next Reset
	}
	// Warm, a reset allocates nothing: the rank and the step tables are
	// reused.
	q := fusedRings(rng, 5, 6, 3)
	v.Reset(q, distance.EdgeMutation{})
	if avg := testing.AllocsPerRun(20, func() { v.Reset(q, distance.EdgeMutation{}) }); avg != 0 {
		t.Errorf("a warm Reset allocates %v times", avg)
	}
}

// withoutLabelCut turns the label cut off in a compiled verifier: the
// kernel the cut is held to.
func withoutLabelCut(v *Verifier) *Verifier {
	v.floor = 0
	for i := range v.steps {
		v.steps[i].labels = 0
	}
	return v
}

// bucketMerged copies g with each edge label moved up by 8 half the time,
// so distinct labels share a bucket of the label-count words.
func bucketMerged(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.N(), g.M())
	for u := range g.N() {
		b.AddWeightedVertex(g.VLabelAt(u), g.VWeightAt(u))
	}
	for _, e := range g.Edges() {
		b.AddWeightedEdge(e.U, e.V, e.Label+graph.ELabel(8*rng.Intn(2)), e.Weight)
	}
	return b.MustBuild()
}

// TestLabelCutKeepsDistances holds the label cut to the kernel without it
// on ringed and fused queries, hosts grown around them and unrelated
// hosts, some with labels that share a bucket: every distance equal bit
// for bit, and never more nodes per call.
func TestLabelCutKeepsDistances(t *testing.T) {
	intMatrix := distance.NewMatrix()
	intMatrix.DefaultCost = 2
	intMatrix.SetVertexScore(0, 1, 1)
	intMatrix.SetEdgeScore(0, 2, 1)
	intMatrix.SetEdgeScore(1, 2, 3)
	metrics := []distance.Metric{distance.EdgeMutation{}, distance.FullMutation{}, intMatrix,
		fractionalMatrix(), distance.Linear{}}
	rng := rand.New(rand.NewSource(46))
	rings := [][2]int{{5, 6}, {6, 6}, {5, 5}, {4, 6}, {3, 5}, {6, 7}}
	var cutNodes, plainNodes [5]uint64
	for trial := 0; trial < 60; trial++ {
		q := randomWeighted(rng, nil, 4+rng.Intn(6), 1+rng.Intn(3))
		if r := rings[trial%len(rings)]; trial%2 == 0 {
			q = fusedRings(rng, r[0], r[1], rng.Intn(3))
		}
		r := rings[rng.Intn(len(rings))]
		hosts := []*graph.Graph{
			randomWeighted(rng, q, q.N()+rng.Intn(10), rng.Intn(5)),
			randomWeighted(rng, q, q.N()+2+rng.Intn(4), 0),
			randomWeighted(rng, nil, 12+rng.Intn(10), 2+rng.Intn(5)),
			fusedRings(rng, r[0], r[1], 4+rng.Intn(6)),
			q,
		}
		if trial%3 == 0 {
			q = bucketMerged(rng, q)
			for i, g := range hosts {
				hosts[i] = bucketMerged(rng, g)
			}
		}
		for mi, metric := range metrics {
			cut, plain := NewVerifier(q, metric), withoutLabelCut(NewVerifier(q, metric))
			for hi, g := range hosts {
				for _, budget := range kernelBudgets {
					c0, p0 := cut.Nodes(), plain.Nodes()
					got, want := cut.Distance(g, budget), plain.Distance(g, budget)
					if got != want {
						t.Fatalf("trial %d metric %T host %d budget %g: cut=%v plain=%v\nq=%v\ng=%v",
							trial, metric, hi, budget, got, want, q, g)
					}
					c, p := cut.Nodes()-c0, plain.Nodes()-p0
					if c > p {
						t.Fatalf("trial %d metric %T host %d budget %g: cut expanded %d nodes, plain %d",
							trial, metric, hi, budget, c, p)
					}
					cutNodes[mi] += c
					plainNodes[mi] += p
				}
			}
		}
	}
	for mi, metric := range metrics {
		t.Logf("%T: %d nodes with the cut, %d without", metric, cutNodes[mi], plainNodes[mi])
		if _, floor := distance.CostFloors(metric); (floor > 0) != (cutNodes[mi] < plainNodes[mi]) {
			t.Errorf("%T with edge floor %g: %d nodes with the cut, %d without", metric, floor, cutNodes[mi], plainNodes[mi])
		}
	}
}

// TestLabelCutFractionalBoundary pins the slack: a star whose six leaf
// edges all mismatch at a fractional floor is at distance exactly σ, the
// sum of six floors in the kernel's order, which is less than six times
// the floor in float64. The cut must keep it an answer at that distance.
func TestLabelCutFractionalBoundary(t *testing.T) {
	star := func(el graph.ELabel) *graph.Graph {
		b := graph.NewBuilder(7, 6)
		for range 7 {
			b.AddVertex(0)
		}
		for leaf := int32(1); leaf < 7; leaf++ {
			b.AddEdge(0, leaf, el)
		}
		return b.MustBuild()
	}
	q, g := star(0), star(1)
	metric := distance.NewMatrix()
	metric.DefaultCost = 0.1
	sigma := 0.0
	for range 6 {
		sigma += metric.DefaultCost
	}
	if 6*metric.DefaultCost <= sigma {
		t.Fatalf("6·%g = %v does not exceed the summed %v: not a boundary case", metric.DefaultCost, 6*metric.DefaultCost, sigma)
	}
	v := NewVerifier(q, metric)
	if d := v.Distance(g, sigma); d != sigma {
		t.Errorf("d = %v at budget %v, want exactly the budget", d, sigma)
	}
	if d := withoutLabelCut(NewVerifier(q, metric)).Distance(g, sigma); d != sigma {
		t.Errorf("without the cut d = %v, want %v", d, sigma)
	}
}

// TestLabelWords holds the SWAR arithmetic to byte-wise counting: words
// saturate at 127 per bucket, and labelDeficit is Σ max(0, q_b − h_b).
func TestLabelWords(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 2000; trial++ {
		var h, q uint64
		var hc, qc [8]int
		for range rng.Intn(300) {
			l := graph.ELabel(rng.Intn(20))
			h = countLabel(h, l)
			hc[l%8] = min(hc[l%8]+1, 127)
		}
		for range rng.Intn(300) {
			l := graph.ELabel(rng.Intn(20))
			q = countLabel(q, l)
			qc[l%8] = min(qc[l%8]+1, 127)
		}
		want := 0
		for b := range 8 {
			if int(h>>(8*b)&0xff) != hc[b] || int(q>>(8*b)&0xff) != qc[b] {
				t.Fatalf("bucket %d: words %016x %016x, counts %v %v", b, h, q, hc, qc)
			}
			want += max(0, qc[b]-hc[b])
		}
		if got := labelDeficit((h | labelTop) - q); got != want {
			t.Fatalf("deficit of %v against %v = %d, want %d", qc, hc, got, want)
		}
	}
}

func TestDistanceEmptyQuery(t *testing.T) {
	empty := graph.NewBuilder(0, 0).MustBuild()
	if d := NewVerifier(empty, distance.FullMutation{}).Distance(cycle(4, 0), 0); d != 0 {
		t.Errorf("empty query distance = %v, want 0", d)
	}
}

// TestDistanceDoneClosed checks cancellation against the reference: with
// done closed before the call both kernels poll at the same node, so a
// search longer than one abortGranule is Infinite and a shorter one still
// finishes with its exact value.
func TestDistanceDoneClosed(t *testing.T) {
	done := make(chan struct{})
	close(done)
	metric := distance.EdgeMutation{}
	long, short := pathG(9, 0), pathG(2, 0)
	host := randomWeighted(rand.New(rand.NewSource(3)), nil, 40, 12)
	for _, q := range []*graph.Graph{long, short} {
		v := NewVerifier(q, metric)
		v.SetDone(done)
		got, want := v.Distance(host, -1), referenceDistance(q, host, metric, -1, done)
		if got != want {
			t.Errorf("q with %d edges: kernel=%v reference=%v", q.M(), got, want)
		}
	}
	v := NewVerifier(long, metric)
	v.SetDone(done)
	if d := v.Distance(host, -1); !distance.IsInfinite(d) {
		t.Errorf("canceled long search = %v, want Infinite", d)
	}
	if d := NewVerifier(long, metric).Distance(host, -1); distance.IsInfinite(d) {
		t.Error("the long search must find a superposition when not canceled")
	}
}

// corpus is generated molecules with a default index over them, under
// EdgeMutation: what the search pipeline hands the verifier.
type corpus struct {
	db  []*graph.Graph
	idx *index.Index
}

func newCorpus(tb testing.TB, n int, weighted bool) *corpus {
	tb.Helper()
	db := chem.Generate(n, chem.Config{Seed: 1, Weighted: weighted})
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 5, MinEdges: 2, MinSupportFraction: 0.05, SampleSize: 300})
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := index.Build(db, feats, index.Options{Metric: distance.EdgeMutation{}, MaxFragmentEdges: 5})
	if err != nil {
		tb.Fatal(err)
	}
	return &corpus{db: db, idx: idx}
}

// screened returns, by id, the hosts that hold every indexed structure of
// q (the bitmap intersection of its fragment classes) and that the
// fingerprint admits at sigma: a superset of the candidates the pipeline
// verifies, which the invariant prescreen and the range queries thin out.
func (c *corpus) screened(q *graph.Graph, sigma float64) []bool {
	vFloor, eFloor := distance.CostFloors(distance.EdgeMutation{})
	qfp := graph.NewQueryFP(q, vFloor, eFloor)
	var classes []*index.Class
	for _, qf := range c.idx.QueryFragments(q) {
		if !slices.Contains(classes, qf.Class) {
			classes = append(classes, qf.Class)
		}
	}
	in := make([]bool, len(c.db))
	for _, id := range c.idx.Candidates(nil, classes, nil) {
		in[id] = qfp.Admissible(c.db[id].FP(), sigma)
	}
	return in
}

// legacyOrder is the match order compile walked before it ranked by the
// invariants, as a rank for compile: degree alone, ties to the first
// found.
func legacyOrder(p *graph.Graph) []uint64 {
	rank := make([]uint64, p.N())
	for u := range rank {
		rank[u] = uint64(p.Degree(u))
	}
	return rank
}

// TestMatchOrderKeepsDistances holds the ranked match order to the
// degree-only order it replaced on the candidates of generated Q16 and
// Q24 queries and on ringed and weighted random pairs: equal bit for bit
// under integer-valued metrics, and within 1e-12 relative under
// fractional ones, whose sums follow the match order. A fractional sum
// within that tolerance of the budget may fall on either side of it.
func TestMatchOrderKeepsDistances(t *testing.T) {
	intMatrix := distance.NewMatrix()
	intMatrix.DefaultCost = 2
	intMatrix.SetVertexScore(0, 1, 1)
	intMatrix.SetEdgeScore(0, 2, 1)
	intMatrix.SetEdgeScore(1, 2, 3)
	// The first three are integer-valued, the rest fractional.
	metrics := []distance.Metric{distance.EdgeMutation{}, distance.FullMutation{}, intMatrix,
		distance.Linear{}, distance.Linear{IncludeVertices: true}, fractionalMatrix()}
	const exact = 3
	budgets := []float64{-1, 0, 1, 2, 4}

	type job struct {
		q     *graph.Graph
		hosts []*graph.Graph
	}
	var jobs []job
	c := newCorpus(t, 500, true)
	for _, shape := range []struct {
		edges int
		sigma float64
	}{{16, 2}, {24, 1}} {
		for _, q := range chem.SampleQueries(c.db, 6, shape.edges, 28) {
			in := c.screened(q, shape.sigma)
			var hosts []*graph.Graph
			for id, g := range c.db {
				if in[id] {
					hosts = append(hosts, g)
				}
			}
			jobs = append(jobs, job{q, hosts})
		}
	}
	rng := rand.New(rand.NewSource(28))
	rings := [][2]int{{5, 6}, {6, 6}, {5, 5}, {4, 6}, {3, 5}}
	for trial := 0; trial < 40; trial++ {
		q := randomWeighted(rng, nil, 4+rng.Intn(6), 1+rng.Intn(3))
		if r := rings[trial%len(rings)]; trial%2 == 0 {
			q = fusedRings(rng, r[0], r[1], rng.Intn(4))
		}
		jobs = append(jobs, job{q, []*graph.Graph{
			randomWeighted(rng, q, q.N()+rng.Intn(12), rng.Intn(5)),
			randomWeighted(rng, nil, 12+rng.Intn(10), 2+rng.Intn(5)),
			q,
		}})
	}

	reordered, pairs, compared, differ := 0, 0, 0, 0
	for _, j := range jobs {
		pairs += len(j.hosts)
		for mi, metric := range metrics {
			v, old := NewVerifier(j.q, metric), NewVerifier(j.q, metric)
			old.compile(j.q, true, legacyOrder(j.q))
			if mi == 0 && !slices.EqualFunc(v.steps, old.steps, func(a, b step) bool { return a.pv == b.pv }) {
				reordered++
			}
			for _, g := range j.hosts {
				for _, budget := range budgets {
					got, want := v.Distance(g, budget), old.Distance(g, budget)
					if got == want {
						continue
					}
					if mi < exact || !nearEqual(got, want, budget) {
						t.Fatalf("metric %T budget %g: ranked order=%v degree order=%v\nq=%v\ng=%v", metric, budget, got, want, j.q, g)
					}
					differ++
				}
				if mi >= exact {
					compared += len(budgets)
				}
			}
		}
	}
	t.Logf("%d queries (%d reordered), %d pairs; %d of %d fractional distances differ in the last bits", len(jobs), reordered, pairs, differ, compared)
	if reordered < len(jobs)/4 || pairs < 1000 {
		t.Errorf("vacuous: %d of %d queries reordered, %d pairs", reordered, len(jobs), pairs)
	}
}

// nearEqual reports whether two fractional distances found in different
// summation orders agree within 1e-12 relative. One may be Infinite when
// the other lies within the tolerance of the budget.
func nearEqual(a, b, budget float64) bool {
	if distance.IsInfinite(a) {
		a, b = b, a
	}
	if distance.IsInfinite(b) {
		b = budget
	}
	return b >= 0 && math.Abs(a-b) <= 1e-12*math.Max(a, b)
}

// BenchmarkVerifierDistance is the iso.Verifier layer benchmark: the query
// shapes of the repo benchmark's broad (64 Q16 queries over 1,200
// generated molecules at σ = 2) and selective (64 Q24 queries over 5,000
// at σ = 1, about one answer each) workloads, on warm verifiers (0
// allocs/op); a handful of queries is not a representative mix. Answers
// and non-answers are apart, and so are the two parts of the non-answers
// that decide what a search pays, both among the hosts that hold every
// indexed structure of the query and pass the fingerprint prescreen of a
// default index: those the query's skeleton embeds in at a distance above
// σ (embed-but-far) and those it does not embed in (no-embedding).
func BenchmarkVerifierDistance(b *testing.B) {
	for _, shape := range []struct {
		name                  string
		hosts, queries, edges int
		sigma                 float64
	}{{"Q16", 1200, 64, 16, 2}, {"Q24", 5000, 64, 24, 1}} {
		b.Run(shape.name, func(b *testing.B) { benchVerifierDistance(b, shape.hosts, shape.queries, shape.edges, shape.sigma) })
	}
}

func benchVerifierDistance(b *testing.B, hosts, queries, edges int, sigma float64) {
	type pair struct {
		v *Verifier
		g *graph.Graph
	}
	c := newCorpus(b, hosts, false)
	var verifiers []*Verifier
	var answers, nonAnswers, far, noEmbedding []pair
	for _, q := range chem.SampleQueries(c.db, queries, edges, 7) {
		v := NewVerifier(q, distance.EdgeMutation{})
		verifiers = append(verifiers, v)
		in := c.screened(q, sigma)
		for id, g := range c.db {
			switch {
			case !distance.IsInfinite(v.Distance(g, sigma)):
				answers = append(answers, pair{v, g})
			case in[id] && HasEmbedding(q, g):
				far = append(far, pair{v, g})
				nonAnswers = append(nonAnswers, pair{v, g})
			case in[id]:
				noEmbedding = append(noEmbedding, pair{v, g})
				fallthrough
			default:
				nonAnswers = append(nonAnswers, pair{v, g})
			}
		}
	}
	if len(answers)+len(nonAnswers) < 256 || len(answers) == 0 || len(far) < 32 || len(noEmbedding) < 32 {
		b.Fatalf("hosts: %d answers, %d non-answers, of them screened in %d embed-but-far and %d without an embedding",
			len(answers), len(nonAnswers), len(far), len(noEmbedding))
	}
	nodes := func() (n uint64) {
		for _, v := range verifiers {
			n += v.Nodes()
		}
		return n
	}
	for _, set := range []struct {
		name  string
		pairs []pair
	}{{"answers", answers}, {"non-answers", nonAnswers}, {"embed-but-far", far}, {"no-embedding", noEmbedding}} {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			before := nodes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := set.pairs[i%len(set.pairs)]
				benchSink = p.v.Distance(p.g, sigma)
			}
			b.ReportMetric(float64(len(set.pairs)), "hosts")
			b.ReportMetric(float64(nodes()-before)/float64(b.N), "nodes/op")
		})
	}
}

var benchSink float64

// superpositionCost sums the metric cost of a complete superposition given
// as an assignment from pattern vertices to host vertices: the brute-force
// counterpart of MinSuperimposedDistance.
func superpositionCost(q, g *graph.Graph, assign []int32, m distance.Metric) float64 {
	cost := 0.0
	for qv := 0; qv < q.N(); qv++ {
		hv := assign[qv]
		cost += m.VertexCost(q.VLabelAt(qv), q.VWeightAt(qv), g.VLabelAt(int(hv)), g.VWeightAt(int(hv)))
	}
	for _, qe := range q.Edges() {
		he := g.EdgeAt(g.EdgeBetween(assign[qe.U], assign[qe.V]))
		cost += m.EdgeCost(qe.Label, qe.Weight, he.Label, he.Weight)
	}
	return cost
}

// ForEachEmbedding calls fn for every structural embedding of pattern into
// host with the assignment slice (pattern vertex -> host vertex). The slice
// is reused; fn must copy it to retain it. fn returning false stops early.
func ForEachEmbedding(pattern, host *graph.Graph, fn func(assign []int32) bool) {
	forEachEmbedding(pattern, host, true, fn)
}
