package mining

import (
	"math"
	"math/rand"
	"testing"

	"pis/internal/canon"
	"pis/internal/graph"
)

// mineByCounting is the reference Mine is checked against: every connected
// edge-subgraph up to MaxEdges of every sampled graph, canonicalized and
// counted once per graph, then ordered like Mine's result.
func mineByCounting(db []*graph.Graph, opts Options) ([]Feature, error) {
	opts, err := opts.normalize(len(db))
	if err != nil {
		return nil, err
	}
	sample := db[:opts.SampleSize]
	minSupport := max(1, int(math.Ceil(opts.MinSupportFraction*float64(len(sample)))))
	type acc struct {
		code    canon.Code
		support int
	}
	counts := map[string]*acc{}
	for _, g := range sample {
		seen := map[string]bool{}
		skel := g.Skeleton()
		graph.EnumerateConnectedSubgraphs(skel, opts.MaxEdges, func(edges []int32) bool {
			if len(edges) < opts.MinEdges {
				return true
			}
			sub, _, _ := graph.Fragment{Host: skel, Edges: edges}.Extract()
			code, _ := canon.MinCode(sub)
			key := code.Key()
			if seen[key] {
				return true
			}
			seen[key] = true
			if counts[key] == nil {
				counts[key] = &acc{code: code}
			}
			counts[key].support++
			return true
		})
	}
	var feats []Feature
	for key, a := range counts {
		f := Feature{Key: key, Code: a.code, Graph: a.code.Graph(), Edges: len(a.code), Support: a.support}
		if a.support >= minSupport {
			feats = append(feats, f)
		}
	}
	return postprocess(feats), nil
}

// TestGSpanMatchesExhaustiveMiner cross-validates pattern growth against
// enumerate-and-count: on the same database with the same thresholds they
// must produce identical feature sets with identical supports.
func TestGSpanMatchesExhaustiveMiner(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		db := make([]*graph.Graph, 12)
		for i := range db {
			db[i] = randomMolecule(rng, 6+rng.Intn(5))
		}
		for _, minSup := range []int{1, 2, 4} {
			maxEdges := 2 + rng.Intn(3)
			got := GSpan(db, GSpanOptions{MinSupport: minSup, MaxEdges: maxEdges, Skeleton: true})
			want, err := mineByCounting(db, Options{
				MaxEdges:           maxEdges,
				MinSupportFraction: float64(minSup) / float64(len(db)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d minSup=%d maxE=%d: gSpan %d features, exhaustive %d",
					trial, minSup, maxEdges, len(got), len(want))
			}
			wantByKey := map[string]int{}
			for _, f := range want {
				wantByKey[f.Key] = f.Support
			}
			for _, f := range got {
				sup, ok := wantByKey[f.Key]
				if !ok {
					t.Fatalf("trial %d: gSpan mined %v absent from exhaustive set", trial, f.Code)
				}
				if sup != f.Support {
					t.Fatalf("trial %d: support mismatch for %v: gSpan %d, exhaustive %d",
						trial, f.Code, f.Support, sup)
				}
			}
		}
	}
}

// TestGSpanLabeled verifies labeled mining against a labeled
// enumerate-and-count oracle built inline.
func TestGSpanLabeled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 6; trial++ {
		db := make([]*graph.Graph, 10)
		for i := range db {
			db[i] = randomMolecule(rng, 6)
		}
		maxEdges := 3
		// Oracle: enumerate labeled subgraphs, canonicalize with labels.
		counts := map[string]int{}
		codes := map[string]canon.Code{}
		for _, g := range db {
			seen := map[string]bool{}
			graph.EnumerateConnectedSubgraphs(g, maxEdges, func(edges []int32) bool {
				sub, _, _ := graph.Fragment{Host: g, Edges: edges}.Extract()
				code, _ := canon.MinCode(sub)
				k := code.Key()
				if !seen[k] {
					seen[k] = true
					counts[k]++
					codes[k] = code
				}
				return true
			})
		}
		minSup := 2
		want := map[string]int{}
		for k, c := range counts {
			if c >= minSup {
				want[k] = c
			}
		}
		got := GSpan(db, GSpanOptions{MinSupport: minSup, MaxEdges: maxEdges, Skeleton: false})
		if len(got) != len(want) {
			t.Fatalf("trial %d: gSpan %d labeled features, oracle %d", trial, len(got), len(want))
		}
		for _, f := range got {
			if want[f.Key] != f.Support {
				t.Fatalf("trial %d: support for %v: gSpan %d, oracle %d (%v)",
					trial, f.Code, f.Support, want[f.Key], codes[f.Key])
			}
		}
	}
}

func TestGSpanRespectsMaxEdges(t *testing.T) {
	db := []*graph.Graph{cycleG(6), cycleG(6), cycleG(6)}
	for _, maxE := range []int{1, 2, 4} {
		feats := GSpan(db, GSpanOptions{MinSupport: 2, MaxEdges: maxE, Skeleton: true})
		for _, f := range feats {
			if f.Edges > maxE {
				t.Fatalf("maxEdges=%d: mined %d-edge pattern", maxE, f.Edges)
			}
		}
	}
}

func TestGSpanFindsRings(t *testing.T) {
	db := []*graph.Graph{cycleG(6), cycleG(6), cycleG(5), pathG(6)}
	feats := GSpan(db, GSpanOptions{MinSupport: 2, MaxEdges: 6, Skeleton: true})
	hexKey := canon.StructureKey(cycleG(6))
	found := false
	for _, f := range feats {
		if f.Key == hexKey {
			found = true
			if f.Support != 2 {
				t.Fatalf("hexagon support = %d, want 2", f.Support)
			}
		}
	}
	if !found {
		t.Fatal("gSpan missed the 6-ring pattern")
	}
}

func TestGSpanMinimumCodeUniqueness(t *testing.T) {
	// Every reported pattern key must be unique: the isMin pruning must
	// prevent duplicate discovery through different growth orders.
	rng := rand.New(rand.NewSource(21))
	db := make([]*graph.Graph, 15)
	for i := range db {
		db[i] = randomMolecule(rng, 8)
	}
	feats := GSpan(db, GSpanOptions{MinSupport: 2, MaxEdges: 4, Skeleton: true})
	seen := map[string]bool{}
	for _, f := range feats {
		if seen[f.Key] {
			t.Fatalf("duplicate pattern %v", f.Code)
		}
		seen[f.Key] = true
	}
}

func BenchmarkGSpanSkeleton(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := make([]*graph.Graph, 60)
	for i := range db {
		db[i] = randomMolecule(rng, 12)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GSpan(db, GSpanOptions{MinSupport: 3, MaxEdges: 5, Skeleton: true})
	}
}

// TestMineMatchesCountingMiner checks Mine end to end, MinEdges filter and
// order included, against the counting reference.
func TestMineMatchesCountingMiner(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := make([]*graph.Graph, 20)
	for i := range db {
		db[i] = randomMolecule(rng, 8)
	}
	for _, opts := range []Options{
		{MaxEdges: 4, MinSupportFraction: 0.1},
		{MaxEdges: 3, MinSupportFraction: 0.2, MinEdges: 2},
	} {
		a, err := mineByCounting(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Mine(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("opts %+v: counting %d features, Mine %d", opts, len(a), len(b))
		}
		for i := range a {
			if a[i].Key != b[i].Key || a[i].Support != b[i].Support || a[i].Code.Compare(b[i].Code) != 0 {
				t.Fatalf("opts %+v: feature %d differs", opts, i)
			}
		}
	}
}
