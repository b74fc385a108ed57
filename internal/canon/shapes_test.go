package canon

import (
	"math/rand"
	"slices"
	"testing"

	"pis/internal/graph"
)

// randomShapeGraph builds a random connected labeled graph with n vertices
// and a few extra edges, exercising paths, cycles, and general shapes.
func randomShapeGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	b := graph.NewBuilder(n, n-1+extra)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VLabel(rng.Intn(4)))
	}
	seen := map[[2]int32]bool{}
	add := func(u, v int32) {
		if u > v {
			u, v = v, u
		}
		if u != v && !seen[[2]int32{u, v}] {
			seen[[2]int32{u, v}] = true
			b.AddEdge(u, v, graph.ELabel(rng.Intn(3)))
		}
	}
	for i := 1; i < n; i++ {
		add(int32(rng.Intn(i)), int32(i))
	}
	for t := 0; t < extra; t++ {
		add(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.MustBuild()
}

// checkPlacement fails unless p classifies the fragment of host made of
// edges as direct canonicalization does, and places the shape's code
// graph onto exactly that fragment: every tuple (i, j) lands on a
// fragment edge joining the vertices placed at i and j.
func checkPlacement[C any](t testing.TB, host *graph.Graph, edges []int32, p *Placement[C]) {
	t.Helper()
	sub, _, _ := graph.Fragment{Host: host, Edges: edges}.Extract()
	if code, _ := MinCode(sub.Skeleton()); p.Shape.Key != code.Key() {
		t.Fatalf("fragment %v: shape %v, direct canonicalization %v", edges, p.Shape.Code, code)
	}
	if len(p.Vertices) != sub.N() || len(p.Edges) != len(edges) || len(p.Shape.Code) != len(edges) {
		t.Fatalf("fragment %v: placed %d vertices and %d edges, want %d and %d", edges, len(p.Vertices), len(p.Edges), sub.N(), len(edges))
	}
	if sorted := slices.Sorted(slices.Values(p.Edges)); !slices.Equal(sorted, slices.Sorted(slices.Values(edges))) {
		t.Fatalf("fragment %v: placed edges %v", edges, p.Edges)
	}
	if len(slices.Compact(slices.Sorted(slices.Values(p.Vertices)))) != len(p.Vertices) {
		t.Fatalf("fragment %v: placed vertices %v repeat", edges, p.Vertices)
	}
	for k, tu := range p.Shape.Code {
		e := host.EdgeAt(int(p.Edges[k]))
		u, v := p.Vertices[tu.I], p.Vertices[tu.J]
		if !(e.U == u && e.V == v) && !(e.U == v && e.V == u) {
			t.Fatalf("fragment %v: tuple %d (%d,%d) placed on host edge %d-%d, not %d-%d", edges, k, tu.I, tu.J, e.U, e.V, u, v)
		}
	}
}

// classifyAll classifies every fragment of g up to maxEdges through t.
func classifyAll[C any](t testing.TB, shapes *Shapes[C], g *graph.Graph, maxEdges int) (fragments int) {
	var cl Classifier[C]
	graph.EnumerateConnectedSubgraphs(g, maxEdges, func(edges []int32) bool {
		checkPlacement(t, g, edges, cl.Classify(shapes, g, edges))
		fragments++
		return true
	})
	return fragments
}

func noClass(string) *struct{} { return nil }

// TestMemoMatchesDirect: the shape table, the canonical-code memo of the
// index, classifies every fragment of random graphs as direct
// MinCode does — on a cold table and again on the warm one — and
// carries an embedding of the code graph along.
func TestMemoMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := NewShapes(noClass)
	for trial := 0; trial < 200; trial++ {
		g := randomShapeGraph(rng, 2+rng.Intn(6), rng.Intn(4))
		for pass := 0; pass < 2; pass++ {
			classifyAll(t, shapes, g, 1+rng.Intn(6))
		}
	}
	if n, tr := shapes.Len(); n < 10 || tr < n-1 {
		t.Fatalf("%d shapes, %d transitions after 200 graphs", n, tr)
	}
}

// TestMemoIgnoresLabels: graphs that differ in labels only classify
// every fragment alike, and the second adds nothing to the table.
func TestMemoIgnoresLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomShapeGraph(rng, 7, 3)
	b := graph.NewBuilder(g.N(), g.M())
	for v := 0; v < g.N(); v++ {
		b.AddVertex(g.VLabelAt(v) + 5)
	}
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V, e.Label+7)
	}
	h := b.MustBuild()
	shapes := NewShapes(noClass)
	var gs []*Shape[struct{}]
	var cl Classifier[struct{}]
	graph.EnumerateConnectedSubgraphs(g, 5, func(edges []int32) bool {
		gs = append(gs, cl.Classify(shapes, g, edges).Shape)
		return true
	})
	n, tr := shapes.Len()
	i := 0
	graph.EnumerateConnectedSubgraphs(h, 5, func(edges []int32) bool {
		if s := cl.Classify(shapes, h, edges).Shape; s != gs[i] {
			t.Fatalf("fragment %d of the relabeled graph: shape %v, want %v", i, s.Code, gs[i].Code)
		}
		i++
		return true
	})
	if n2, tr2 := shapes.Len(); n2 != n || tr2 != tr {
		t.Fatalf("relabeling grew the table from %d/%d to %d/%d", n, tr, n2, tr2)
	}
}

// TestMemoKeyDistinguishesStructures: a path and a star of three edges
// share a vertex count and end in different shapes.
func TestMemoKeyDistinguishesStructures(t *testing.T) {
	build := func(ends ...int32) *graph.Graph {
		b := graph.NewBuilder(4, 3)
		for i := 0; i < 4; i++ {
			b.AddVertex(0)
		}
		for k := 0; k < len(ends); k += 2 {
			b.AddEdge(ends[k], ends[k+1], 0)
		}
		return b.MustBuild()
	}
	shapes := NewShapes(noClass)
	shapeOf := func(g *graph.Graph) *Shape[struct{}] {
		var cl Classifier[struct{}]
		var last *Shape[struct{}]
		graph.EnumerateConnectedSubgraphs(g, 3, func(edges []int32) bool {
			if p := cl.Classify(shapes, g, edges); len(edges) == 3 {
				last = p.Shape
			}
			return true
		})
		return last
	}
	path, star := shapeOf(build(0, 1, 1, 2, 2, 3)), shapeOf(build(0, 1, 0, 2, 0, 3))
	if path == star || path.Key == star.Key {
		t.Fatalf("path and star share shape %v", path.Code)
	}
}

// TestShapesInternOnce: a shape reached along different extension paths
// is one *Shape, resolved once, and the table never holds more shapes
// than there are connected graphs of that many edges (10 up to 4 edges).
func TestShapesInternOnce(t *testing.T) {
	resolved := map[string]int{}
	shapes := NewShapes(func(key string) *struct{} {
		resolved[key]++
		return nil
	})
	rng := rand.New(rand.NewSource(11))
	byKey := map[string]*Shape[struct{}]{}
	for trial := 0; trial < 300; trial++ {
		g := randomShapeGraph(rng, 2+rng.Intn(7), rng.Intn(5))
		var cl Classifier[struct{}]
		graph.EnumerateConnectedSubgraphs(g, 4, func(edges []int32) bool {
			s := cl.Classify(shapes, g, edges).Shape
			if prev := byKey[s.Key]; prev != nil && prev != s {
				t.Fatalf("shape %v interned twice", s.Code)
			}
			byKey[s.Key] = s
			return true
		})
	}
	n, _ := shapes.Len()
	if n != len(byKey) || n > 10 {
		t.Fatalf("table holds %d shapes, %d seen, at most 10 exist", n, len(byKey))
	}
	for key, k := range resolved {
		if k != 1 {
			t.Fatalf("shape %q resolved %d times", key, k)
		}
	}
}

// TestClassifyDoesNotAllocate pins the warm path.
func TestClassifyDoesNotAllocate(t *testing.T) {
	g := randomShapeGraph(rand.New(rand.NewSource(3)), 7, 3)
	shapes := NewShapes(noClass)
	var cl Classifier[struct{}]
	var en graph.SubgraphEnumerator
	run := func() {
		en.Enumerate(g, 5, func(edges []int32) bool {
			cl.Classify(shapes, g, edges)
			return true
		})
	}
	run()
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Errorf("warm classification allocates %.1f times per graph, want 0", avg)
	}
}
