package mining

import (
	"math/rand"
	"slices"
	"testing"

	"pis/internal/canon"
	"pis/internal/graph"
	"pis/internal/iso"
)

func cycleG(n int) *graph.Graph {
	b := graph.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.AddVertex(0)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n), 0)
	}
	return b.MustBuild()
}

func pathG(n int) *graph.Graph {
	b := graph.NewBuilder(n+1, n)
	for i := 0; i <= n; i++ {
		b.AddVertex(0)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32(i+1), 0)
	}
	return b.MustBuild()
}

func randomMolecule(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n, n+2)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VLabel(rng.Intn(3)))
	}
	for i := 1; i < n; i++ {
		b.AddEdge(int32(rng.Intn(i)), int32(i), graph.ELabel(rng.Intn(3)))
	}
	return b.MustBuild()
}

func TestMineFindsExpectedStructures(t *testing.T) {
	db := []*graph.Graph{cycleG(6), cycleG(6), cycleG(5), pathG(4)}
	feats, err := Mine(db, Options{MaxEdges: 6, MinSupportFraction: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Feature{}
	for _, f := range feats {
		byKey[f.Key] = f
	}
	// A single edge appears in all 4 graphs.
	edgeKey := canon.StructureKey(pathG(1))
	if f, ok := byKey[edgeKey]; !ok || f.Support != 4 {
		t.Errorf("single edge feature missing or wrong support: %+v", byKey[edgeKey])
	}
	// The hexagon appears in exactly 2 graphs of 4: support fraction 0.5.
	hexKey := canon.StructureKey(cycleG(6))
	if f, ok := byKey[hexKey]; !ok || f.Support != 2 {
		t.Errorf("hexagon feature missing or wrong support: got %+v", byKey[hexKey])
	}
	// The pentagon appears once: below min support.
	pentKey := canon.StructureKey(cycleG(5))
	if _, ok := byKey[pentKey]; ok {
		t.Error("pentagon kept despite support below threshold")
	}
	// Support must never exceed DB size and features are deduped.
	seen := map[string]bool{}
	for _, f := range feats {
		if f.Support > len(db) || f.Support < 1 {
			t.Errorf("feature support out of range: %+v", f)
		}
		if seen[f.Key] {
			t.Errorf("duplicate feature %q", f.Key)
		}
		seen[f.Key] = true
		if f.Graph.M() != f.Edges {
			t.Errorf("feature graph size disagrees with Edges")
		}
	}
}

func TestMineSupportsAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	db := make([]*graph.Graph, 15)
	for i := range db {
		db[i] = randomMolecule(rng, 5+rng.Intn(4))
	}
	feats, err := Mine(db, Options{MaxEdges: 3, MinSupportFraction: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: support via explicit subgraph isomorphism of the skeletons.
	for _, f := range feats[:min(len(feats), 12)] {
		want := 0
		for _, g := range db {
			if iso.HasEmbedding(f.Graph, g.Skeleton()) {
				want++
			}
		}
		if f.Support != want {
			t.Errorf("feature %v: support %d, oracle %d", f.Code, f.Support, want)
		}
	}
}

func TestMineOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := make([]*graph.Graph, 10)
	for i := range db {
		db[i] = randomMolecule(rng, 8)
	}
	feats, err := Mine(db, Options{MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(feats); i++ {
		a, b := feats[i-1], feats[i]
		if a.Edges < b.Edges {
			t.Fatal("features not sorted by size desc")
		}
		if a.Edges == b.Edges && a.Support > b.Support {
			t.Fatal("equal-size features not sorted by support asc")
		}
	}
}

func TestMinEdgesFilter(t *testing.T) {
	db := []*graph.Graph{cycleG(6), pathG(5)}
	feats, err := Mine(db, Options{MaxEdges: 4, MinEdges: 3, MinSupportFraction: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feats {
		if f.Edges < 3 || f.Edges > 4 {
			t.Errorf("feature size %d outside [3,4]", f.Edges)
		}
	}
}

func TestMineOptionValidation(t *testing.T) {
	db := []*graph.Graph{pathG(2)}
	if _, err := Mine(db, Options{MaxEdges: 0}); err == nil {
		t.Error("MaxEdges 0 accepted")
	}
	if _, err := Mine(db, Options{MaxEdges: 2, MinEdges: 3}); err == nil {
		t.Error("MinEdges > MaxEdges accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func starG(leaves int) *graph.Graph {
	b := graph.NewBuilder(leaves+1, leaves)
	for i := 0; i <= leaves; i++ {
		b.AddVertex(0)
	}
	for i := 1; i <= leaves; i++ {
		b.AddEdge(0, int32(i), 0)
	}
	return b.MustBuild()
}

// selectKeys is Select's result as keys, failing the test on an error.
func selectKeys(t *testing.T, graphs []*graph.Graph) []string {
	t.Helper()
	got, err := Select(graphs, 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(got))
	for i, f := range got {
		keys[i] = f.Key
	}
	return keys
}

// TestSelect: Select is Mine's frequent skeletons of 2 to maxEdges edges
// over a 300-graph prefix, in Mine's order, less exactly those fewer than
// 3 sampled graphs lack (⌈1 %⌉ of 300); below 100 sampled graphs, less
// only those every sampled graph holds. A sample that shares every
// skeleton selects none, and that is not an error.
func TestSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := make([]*graph.Graph, 400)
	for i := range db {
		db[i] = randomMolecule(rng, 6+rng.Intn(6))
	}
	// Stars lack the 3-edge path every random tree of the fixture holds:
	// two in the 300-graph sample, one in its first 50 graphs.
	db[0], db[150] = starG(6), starG(5)
	path3 := canon.StructureKey(pathG(3))

	// kept mines the first n graphs and keeps the skeletons at least
	// minLacking of them lack; lacks counts the mined skeletons by how
	// many sampled graphs lack them.
	kept := func(n, minLacking int) (want []string, lacks map[string]int) {
		mined, err := Mine(db[:n], Options{MaxEdges: 4, MinEdges: 2, MinSupportFraction: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		lacks = map[string]int{}
		for _, f := range mined {
			lacks[f.Key] = n - f.Support
			if n-f.Support >= minLacking {
				want = append(want, f.Key)
			}
		}
		return want, lacks
	}

	want, lacks := kept(300, 3)
	if lacks[path3] != 2 {
		t.Fatalf("the 3-edge path is lacked by %d sampled graphs, want 2", lacks[path3])
	}
	var universal, rare int
	for _, l := range lacks {
		if l == 0 {
			universal++
		} else if l >= 3 {
			rare++
		}
	}
	if universal == 0 || rare == 0 {
		t.Fatalf("lacked-by counts %v: the fixture needs a skeleton every sampled graph holds and one 3 or more lack", lacks)
	}
	if got := selectKeys(t, db); !slices.Equal(got, want) {
		t.Errorf("Select kept %d features %q, want the %d of Mine's that 3 or more of 300 lack, in order %q", len(got), got, len(want), want)
	}

	want, lacks = kept(50, 1)
	if lacks[path3] != 1 {
		t.Fatalf("the 3-edge path is lacked by %d of the first 50 graphs, want 1", lacks[path3])
	}
	if got := selectKeys(t, db[:50]); !slices.Equal(got, want) || !slices.Contains(got, path3) {
		t.Errorf("a 50-graph sample: Select kept %q, want the %d of Mine's not all 50 hold, the 3-edge path among them, in order %q", got, len(want), want)
	}

	rings := []*graph.Graph{cycleG(6), cycleG(6), cycleG(6)}
	if feats, err := Select(rings, 4); err != nil || len(feats) != 0 {
		t.Errorf("a sample sharing every skeleton: Select = %d features, %v; want none and no error", len(feats), err)
	}
}
