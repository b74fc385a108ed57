package canon

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pis/internal/graph"
)

func cycle(n int, vl graph.VLabel, el graph.ELabel) *graph.Graph {
	b := graph.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.AddVertex(vl)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n), el)
	}
	return b.MustBuild()
}

func path(n int, vl graph.VLabel, el graph.ELabel) *graph.Graph {
	b := graph.NewBuilder(n+1, n)
	for i := 0; i <= n; i++ {
		b.AddVertex(vl)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32(i+1), el)
	}
	return b.MustBuild()
}

// permute returns g with vertices relabeled by a random permutation and
// its edges in a random order, labels and weights carried along.
func permute(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	n := g.N()
	perm := rng.Perm(n)
	b := graph.NewBuilder(n, g.M())
	inv := make([]int32, n)
	for newID, oldID := range perm {
		inv[oldID] = int32(newID)
	}
	// Add vertices in new order carrying old labels.
	for _, old := range perm {
		b.AddWeightedVertex(g.VLabelAt(old), g.VWeightAt(old))
	}
	var edges []graph.Edge
	for _, e := range g.Edges() {
		edges = append(edges, e)
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		b.AddWeightedEdge(inv[e.U], inv[e.V], e.Label, e.Weight)
	}
	return b.MustBuild()
}

// randomConnected builds a random connected labeled graph.
func randomConnected(rng *rand.Rand, maxN int, vlabels, elabels int) *graph.Graph {
	n := 2 + rng.Intn(maxN-1)
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VLabel(rng.Intn(vlabels)))
	}
	type pair struct{ u, v int32 }
	used := map[pair]bool{}
	for i := 1; i < n; i++ {
		u := int32(rng.Intn(i))
		b.AddEdge(u, int32(i), graph.ELabel(rng.Intn(elabels)))
		used[pair{u, int32(i)}] = true
	}
	extra := rng.Intn(n)
	for k := 0; k < extra; k++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if used[pair{u, v}] {
			continue
		}
		used[pair{u, v}] = true
		b.AddEdge(u, v, graph.ELabel(rng.Intn(elabels)))
	}
	return b.MustBuild()
}

func TestMinCodeSingleEdge(t *testing.T) {
	b := graph.NewBuilder(2, 1)
	b.AddVertex(3)
	b.AddVertex(1)
	b.AddEdge(0, 1, 5)
	g := b.MustBuild()
	code, embs := MinCode(g)
	if len(code) != 1 {
		t.Fatalf("code length %d", len(code))
	}
	want := Tuple{I: 0, J: 1, LI: 1, LE: 5, LJ: 3}
	if code[0] != want {
		t.Fatalf("code[0] = %+v, want %+v", code[0], want)
	}
	if len(embs) != 1 || embs[0].Vertices[0] != 1 || embs[0].Vertices[1] != 0 {
		t.Fatalf("embeddings = %+v", embs)
	}
}

func TestMinCodeSingleVertex(t *testing.T) {
	b := graph.NewBuilder(1, 0)
	b.AddVertex(9)
	g := b.MustBuild()
	code, embs := MinCode(g)
	if len(code) != 0 || len(embs) != 1 {
		t.Fatalf("code=%v embs=%v", code, embs)
	}
}

func TestMinCodeOrbitSizes(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int // |Aut| for unlabeled structures
	}{
		{"path2", path(2, 0, 0), 2}, // mirror
		{"path3", path(3, 0, 0), 2}, // mirror
		{"triangle", cycle(3, 0, 0), 6},
		{"square", cycle(4, 0, 0), 8},
		{"hexagon", cycle(6, 0, 0), 12},
	}
	for _, c := range cases {
		_, embs := MinCode(c.g)
		if len(embs) != c.want {
			t.Errorf("%s: %d canonical embeddings, want %d", c.name, len(embs), c.want)
		}
	}
}

func TestMinCodeEmbeddingsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		g := randomConnected(rng, 7, 3, 3)
		code, embs := MinCode(g)
		if len(embs) == 0 {
			t.Fatal("no embeddings")
		}
		for _, emb := range embs {
			if len(emb.Vertices) != g.N() || len(emb.Edges) != g.M() {
				t.Fatalf("embedding size mismatch")
			}
			for k, tup := range code {
				he := g.EdgeAt(int(emb.Edges[k]))
				hu, hv := emb.Vertices[tup.I], emb.Vertices[tup.J]
				if !((he.U == hu && he.V == hv) || (he.U == hv && he.V == hu)) {
					t.Fatalf("tuple %d maps to wrong host edge", k)
				}
				if he.Label != tup.LE ||
					g.VLabelAt(int(hu)) != tup.LI || g.VLabelAt(int(hv)) != tup.LJ {
					t.Fatalf("tuple %d labels disagree with host", k)
				}
			}
		}
	}
}

func TestMinCodeInvariantUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 80; trial++ {
		g := randomConnected(rng, 8, 4, 3)
		c1, _ := MinCode(g)
		c2, _ := MinCode(permute(g, rng))
		if c1.Compare(c2) != 0 {
			t.Fatalf("trial %d: permuted copy has different min code\n g=%v\n c1=%v\n c2=%v",
				trial, g, c1, c2)
		}
		if c1.Key() != c2.Key() {
			t.Fatalf("trial %d: keys differ while codes equal", trial)
		}
	}
}

func TestMinCodeSeparatesNonIsomorphic(t *testing.T) {
	// Path of 3 edges vs star of 3 edges: same size, different structure.
	star := func() *graph.Graph {
		b := graph.NewBuilder(4, 3)
		for i := 0; i < 4; i++ {
			b.AddVertex(0)
		}
		b.AddEdge(0, 1, 0)
		b.AddEdge(0, 2, 0)
		b.AddEdge(0, 3, 0)
		return b.MustBuild()
	}()
	c1, _ := MinCode(path(3, 0, 0))
	c2, _ := MinCode(star)
	if c1.Compare(c2) == 0 {
		t.Error("path3 and star3 share a min code")
	}
	// Same structure, different edge labels.
	c3, _ := MinCode(path(2, 0, 1))
	c4, _ := MinCode(path(2, 0, 2))
	if c3.Compare(c4) == 0 {
		t.Error("differently labeled paths share a min code")
	}
}

func TestCodeGraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		g := randomConnected(rng, 7, 3, 3)
		code, _ := MinCode(g)
		back := code.Graph()
		code2, _ := MinCode(back)
		if code.Compare(code2) != 0 {
			t.Fatalf("trial %d: code graph does not canonicalize to the same code", trial)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("trial %d: reconstruction changed size", trial)
		}
	}
}

func TestTupleCompareOrder(t *testing.T) {
	// Backward precedes forward when i < j2 (rule 3) and labels break ties.
	bwd := Tuple{I: 2, J: 0}
	fwd := Tuple{I: 0, J: 3}
	if bwd.Compare(fwd) != -1 || fwd.Compare(bwd) != 1 {
		t.Error("backward/forward ordering wrong")
	}
	// Deeper forward origin is smaller.
	f1 := Tuple{I: 2, J: 3}
	f2 := Tuple{I: 1, J: 3}
	if f1.Compare(f2) != -1 {
		t.Error("deeper forward origin should be smaller")
	}
	// Label tiebreak.
	a := Tuple{I: 0, J: 1, LE: 1}
	b := Tuple{I: 0, J: 1, LE: 2}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("label ordering wrong")
	}
}

// TestGraphKey: equal exactly for isomorphic graphs (labels and weights
// included), and computed once per graph.
func TestGraphKey(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		g := randomConnected(rng, 8, 2, 2)
		if GraphKey(g) != GraphKey(permute(g, rng)) {
			t.Fatalf("trial %d: a permuted copy has another key", trial)
		}
	}
	if GraphKey(path(4, 1, 0)) == GraphKey(path(4, 2, 0)) || GraphKey(path(1, 1, 0)) == GraphKey(path(1, 2, 0)) {
		t.Error("graphs that differ in a vertex label share a key")
	}
	weighted := func(w float64) *graph.Graph {
		b := graph.NewBuilder(2, 1)
		b.AddVertex(0)
		b.AddVertex(0)
		b.AddWeightedEdge(0, 1, 0, w)
		return b.MustBuild()
	}
	if GraphKey(weighted(1)) == GraphKey(weighted(2)) {
		t.Error("graphs that differ in an edge weight share a key")
	}
	g := cycle(6, 0, 1)
	want := GraphKey(g)
	if allocs := testing.AllocsPerRun(10, func() {
		if GraphKey(g) != want {
			t.Fatal("memoized key changed")
		}
	}); allocs != 0 {
		t.Errorf("a second GraphKey of the same graph allocates %.0f times: not memoized", allocs)
	}
}

func TestStructureKeyIgnoresLabels(t *testing.T) {
	if StructureKey(cycle(5, 1, 2)) != StructureKey(cycle(5, 9, 4)) {
		t.Error("structure key depends on labels")
	}
	if StructureKey(cycle(5, 0, 0)) == StructureKey(path(5, 0, 0)) {
		t.Error("structure key collides across structures")
	}
}

func TestMinCodeQuickPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 7, 3, 3)
		c1, _ := MinCode(g)
		c2, _ := MinCode(permute(g, rng))
		return c1.Compare(c2) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMinCodeHexagon(b *testing.B) {
	g := cycle(6, 0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MinCode(g)
	}
}

func BenchmarkMinCodeRandom6Edges(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gs := make([]*graph.Graph, 64)
	for i := range gs {
		gs[i] = randomConnected(rng, 6, 2, 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinCode(gs[i%len(gs)])
	}
}
