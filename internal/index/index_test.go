package index

import (
	"math/rand"
	"slices"
	"testing"

	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/iso"
	"pis/internal/mining"
)

// RangeQuery is RangeQueryInto with a freshly allocated map result.
func (x *Index) RangeQuery(qf QueryFragment, sigma float64) map[int32]float64 {
	var pl PostingList
	var rb RangeBuffer
	x.RangeQueryInto(qf, sigma, &pl, &rb, nil)
	out := make(map[int32]float64, len(pl.IDs))
	for i, id := range pl.IDs {
		out[id] = pl.Dists[i]
	}
	return out
}

// Lookup returns the class for a structure key, or nil.
func (x *Index) Lookup(key string) *Class {
	for _, c := range x.list {
		if c.Key == key {
			return c
		}
	}
	return nil
}

// Fragments returns the number of stored (key, graph) pairs: a key that
// occurs several times inside one graph counts once for it.
func (c *Class) Fragments() int { return c.fragments }

// randomMolecule builds a sparse connected graph with chemistry-like label
// skew: most edges share one label so distances are small but non-zero.
// Edge weights come from the endpoints, not from rng, so the labels a seed
// gives do not depend on them; weight metrics get quarter-step distances.
func randomMolecule(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n, n+2)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VLabel(rng.Intn(2)))
	}
	lab := func() graph.ELabel {
		if rng.Intn(4) == 0 {
			return graph.ELabel(1 + rng.Intn(2))
		}
		return 0
	}
	for i := 1; i < n; i++ {
		u := rng.Intn(i)
		b.AddWeightedEdge(int32(u), int32(i), lab(), float64((3*u+i)%8)/4)
	}
	return b.MustBuild()
}

// testMatrix is a mutation score matrix with non-uniform, fractional
// (dyadic, so sums are exact in any order) vertex and edge costs.
func testMatrix() *distance.Matrix {
	m := distance.NewMatrix()
	m.SetEdgeScore(0, 1, 0.5)
	m.SetEdgeScore(1, 2, 0.25)
	m.SetVertexScore(0, 1, 0.75)
	return m
}

// metricCases are the four exported metrics the differentials of this
// package run over. "trie", "vptree" and "rtree" are the names three of
// the cases have carried since each had a per-class structure of its own
// (the paper's Figure 5: a trie for mutation distance, a metric index
// for score matrices, an R-tree for linear distance); they are kept so
// test ids stay comparable across that change.
var metricCases = []struct {
	name   string
	metric distance.Metric
}{
	{"trie", distance.EdgeMutation{}},
	{"full", distance.FullMutation{}},
	{"vptree", testMatrix()},
	{"rtree", distance.Linear{}},
}

func buildSmall(t *testing.T, metric distance.Metric, seed int64, n int) (*Index, []*graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := make([]*graph.Graph, n)
	for i := range db {
		db[i] = randomMolecule(rng, 6+rng.Intn(5))
	}
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 3, MinSupportFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(db, feats, Options{Metric: metric})
	if err != nil {
		t.Fatal(err)
	}
	return x, db
}

func TestBuildBasics(t *testing.T) {
	x, db := buildSmall(t, distance.EdgeMutation{}, 1, 20)
	if x.DBSize() != len(db) {
		t.Fatalf("DBSize = %d", x.DBSize())
	}
	st := x.Stats()
	if st.Classes == 0 || st.Fragments == 0 || st.Sequences == 0 {
		t.Fatalf("empty index: %+v", st)
	}
	for _, c := range x.Classes() {
		if len(c.perms) == 0 {
			t.Fatal("class without automorphism perms")
		}
		// The class bitmap holds exactly the graphs of the entry runs.
		got, want := x.Candidates(nil, []*Class{c}, nil), runGraphs(c)
		if !slices.Equal(got, want) || c.GraphCount() != len(want) {
			t.Fatalf("class %d: bitmap %v (count %d), entry runs %v", c.ID, got, c.GraphCount(), want)
		}
		if x.Lookup(c.Key) != c {
			t.Fatal("Lookup does not find class by key")
		}
	}
}

func TestBuildValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := []*graph.Graph{randomMolecule(rng, 5), randomMolecule(rng, 6), randomMolecule(rng, 7)}
	// An empty feature set is legal: the index holds no class, so its
	// structural candidates are every live graph.
	x, err := Build(db, nil, Options{Metric: distance.EdgeMutation{}})
	if err != nil {
		t.Fatalf("empty feature set refused: %v", err)
	}
	if got := x.Candidates(nil, nil, (*Tombstones)(nil).WithSet(1)); len(x.Classes()) != 0 || !slices.Equal(got, []int32{0, 2}) {
		t.Errorf("featureless index: %d classes, candidates %v, want 0 and every live graph [0 2]", len(x.Classes()), got)
	}
	feats, _ := mining.Mine(db, mining.Options{MaxEdges: 2})
	if _, err := Build(db, feats, Options{}); err == nil {
		t.Error("nil metric accepted")
	}
}

// postingsOracle: graph contains the class structure iff a structural
// embedding exists.
func TestPostingsMatchIsomorphismOracle(t *testing.T) {
	x, db := buildSmall(t, distance.EdgeMutation{}, 7, 15)
	for _, c := range x.Classes() {
		want := map[int32]bool{}
		for id, g := range db {
			if iso.HasEmbedding(c.Structure, g.Skeleton()) {
				want[int32(id)] = true
			}
		}
		got := map[int32]bool{}
		for _, id := range x.Candidates(nil, []*Class{c}, nil) {
			got[id] = true
		}
		if len(got) != len(want) {
			t.Fatalf("class %d: %d graphs, oracle %d", c.ID, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("class %d: missing graph %d", c.ID, id)
			}
		}
	}
}

// rangeOracle computes d(g,G) per Eq. 3 via branch-and-bound isomorphism.
func rangeOracle(qf QueryFragment, q *graph.Graph, db []*graph.Graph,
	metric distance.Metric, sigma float64) map[int32]float64 {
	frag := graph.Fragment{Host: q, Edges: qf.Edges}
	sub, _, _ := frag.Extract()
	out := map[int32]float64{}
	for id, g := range db {
		d := iso.MinSuperimposedDistance(sub, g, metric, sigma)
		if !distance.IsInfinite(d) && d <= sigma {
			out[int32(id)] = d
		}
	}
	return out
}

func testRangeQueryAgainstOracle(t *testing.T, metric distance.Metric) {
	t.Helper()
	x, db := buildSmall(t, metric, 13, 12)
	rng := rand.New(rand.NewSource(99))
	queries := 0
	for attempts := 0; attempts < 40 && queries < 15; attempts++ {
		q := db[rng.Intn(len(db))]
		qfs := x.QueryFragments(q)
		if len(qfs) == 0 {
			continue
		}
		qf := qfs[rng.Intn(len(qfs))]
		sigma := float64(rng.Intn(6)) / 2
		want := rangeOracle(qf, q, db, metric, sigma)
		got := x.RangeQuery(qf, sigma)
		if len(got) != len(want) {
			t.Fatalf("%T attempt %d: got %d graphs, want %d (sigma=%v)\n got=%v\nwant=%v",
				metric, attempts, len(got), len(want), sigma, got, want)
		}
		for id, d := range want {
			if got[id] != d {
				t.Fatalf("%T: graph %d distance %v, oracle %v", metric, id, got[id], d)
			}
		}
		queries++
	}
	if queries < 5 {
		t.Fatalf("only %d usable queries generated", queries)
	}
}

// The range query against branch-and-bound isomorphism under each label
// metric (names: see metricCases); TestRangeQueryRTreeLinear is the weight
// metric's.
func TestRangeQueryTrieMatchesOracle(t *testing.T) {
	testRangeQueryAgainstOracle(t, distance.EdgeMutation{})
}
func TestRangeQueryFullMatchesOracle(t *testing.T) {
	testRangeQueryAgainstOracle(t, distance.FullMutation{})
}
func TestRangeQueryVPTreeMatchesOracle(t *testing.T) { testRangeQueryAgainstOracle(t, testMatrix()) }

func TestRangeQueryRTreeLinear(t *testing.T) {
	// Weighted DB: weights on edges, linear metric.
	rng := rand.New(rand.NewSource(5))
	db := make([]*graph.Graph, 10)
	for i := range db {
		n := 6 + rng.Intn(3)
		b := graph.NewBuilder(n, n)
		for v := 0; v < n; v++ {
			b.AddVertex(0)
		}
		for v := 1; v < n; v++ {
			b.AddWeightedEdge(int32(rng.Intn(v)), int32(v), 0, float64(rng.Intn(8))/2)
		}
		db[i] = b.MustBuild()
	}
	metric := distance.Linear{}
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 2, MinSupportFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(db, feats, Options{Metric: metric})
	if err != nil {
		t.Fatal(err)
	}
	q := db[0]
	for _, qf := range x.QueryFragments(q)[:3] {
		sigma := 1.0
		want := rangeOracle(qf, q, db, metric, sigma)
		got := x.RangeQuery(qf, sigma)
		if len(got) != len(want) {
			t.Fatalf("rtree: got %d, want %d", len(got), len(want))
		}
		for id, d := range want {
			if diff := got[id] - d; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("rtree: graph %d distance %v, oracle %v", id, got[id], d)
			}
		}
	}
}

func TestQueryFragmentsMetadata(t *testing.T) {
	x, db := buildSmall(t, distance.EdgeMutation{}, 21, 10)
	q := db[3]
	for _, qf := range x.QueryFragments(q) {
		if len(qf.Edges) != qf.Class.NumE {
			t.Fatalf("fragment edge count %d disagrees with class %d", len(qf.Edges), qf.Class.NumE)
		}
		if len(qf.Vertices) != qf.Class.NumV {
			t.Fatalf("fragment vertex count disagrees with class")
		}
		if len(qf.Key) != qf.Class.SeqLen() {
			t.Fatalf("sequence length mismatch")
		}
		for i := 1; i < len(qf.Vertices); i++ {
			if qf.Vertices[i] <= qf.Vertices[i-1] {
				t.Fatal("fragment vertices not sorted")
			}
		}
	}
}

func TestVariantsContainIdentityAndAreClosed(t *testing.T) {
	x, db := buildSmall(t, distance.EdgeMutation{}, 2, 8)
	q := db[0]
	qfs := x.QueryFragments(q)
	if len(qfs) == 0 {
		t.Skip("no indexed fragments")
	}
	for _, qf := range qfs[:min(4, len(qfs))] {
		variants := qf.Class.Variants(qf.Key)
		found := false
		for _, v := range variants {
			if slices.Equal(v, qf.Key) {
				found = true
			}
			if len(v) != len(qf.Key) {
				t.Fatal("variant length changed")
			}
		}
		if !found {
			t.Fatal("identity variant missing")
		}
		if len(variants) > len(qf.Class.perms) {
			t.Fatal("more variants than automorphisms")
		}
	}
}
