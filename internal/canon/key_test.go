package canon

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"pis/internal/chem"
	"pis/internal/graph"
)

// minCodeKey is the key GraphKey gave before colour refinement, kept as
// its reference: the minimum DFS code of g plus the smallest vertex
// label + weight sequence over all canonical embeddings.
func minCodeKey(g *graph.Graph) string {
	code, embs := MinCode(g)
	var best []byte
	buf := make([]byte, 0, 10*(g.N()+g.M()))
	for _, emb := range embs {
		buf = buf[:0]
		for _, v := range emb.Vertices {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(g.VLabelAt(int(v))))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.VWeightAt(int(v))))
		}
		for _, e := range emb.Edges {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.EdgeAt(int(e)).Weight))
		}
		if best == nil || string(buf) < string(best) {
			best = append(best[:0], buf...)
		}
	}
	return code.Key() + "|" + string(best)
}

// keyKind is the branch GraphKey took for a key.
func keyKind(key string) int { return int(key[0]) }

// fromEdges builds a one-label graph on n vertices.
func fromEdges(n int, edges [][2]int32, el graph.ELabel) *graph.Graph {
	b := graph.NewBuilder(n, len(edges))
	for i := 0; i < n; i++ {
		b.AddVertex(0)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1], el)
	}
	return b.MustBuild()
}

func complete(n int) *graph.Graph {
	var es [][2]int32
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			es = append(es, [2]int32{int32(u), int32(v)})
		}
	}
	return fromEdges(n, es, 0)
}

func completeBipartite(a, b int) *graph.Graph {
	var es [][2]int32
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			es = append(es, [2]int32{int32(u), int32(a + v)})
		}
	}
	return fromEdges(a+b, es, 0)
}

func hypercube(d int) *graph.Graph {
	var es [][2]int32
	for u := 0; u < 1<<d; u++ {
		for bit := 0; bit < d; bit++ {
			if v := u ^ 1<<bit; u < v {
				es = append(es, [2]int32{int32(u), int32(v)})
			}
		}
	}
	return fromEdges(1<<d, es, 0)
}

// prism is two k-cycles joined rung by rung.
func prism(k int) *graph.Graph {
	var es [][2]int32
	for i := 0; i < k; i++ {
		j := int32((i + 1) % k)
		es = append(es, [2]int32{int32(i), j}, [2]int32{int32(k + i), int32(k) + j}, [2]int32{int32(i), int32(k + i)})
	}
	return fromEdges(2*k, es, 0)
}

func petersen() *graph.Graph {
	var es [][2]int32
	for i := int32(0); i < 5; i++ {
		es = append(es, [2]int32{i, (i + 1) % 5}, [2]int32{i, 5 + i}, [2]int32{5 + i, 5 + (i+2)%5})
	}
	return fromEdges(10, es, 0)
}

// fusedRings returns all-carbon aromatic ring systems: naphthalene,
// anthracene, phenanthrene, pyrene and coronene, whose symmetries leave
// refinement with ties.
func fusedRings() []*graph.Graph {
	ring := func(es [][2]int32, vs ...int32) [][2]int32 {
		for i := range vs {
			es = append(es, [2]int32{vs[i], vs[(i+1)%len(vs)]})
		}
		return es
	}
	// Each system is its rings over shared vertex ids; shared edges dedup.
	systems := []struct {
		n     int
		rings [][]int32
	}{
		{10, [][]int32{{0, 1, 2, 3, 4, 5}, {4, 3, 6, 7, 8, 9}}},
		{14, [][]int32{{0, 1, 2, 3, 4, 5}, {4, 3, 6, 7, 8, 9}, {8, 7, 10, 11, 12, 13}}},
		{14, [][]int32{{0, 1, 2, 3, 4, 5}, {4, 3, 6, 7, 8, 9}, {7, 6, 10, 11, 12, 13}}},
		{16, [][]int32{{0, 1, 2, 3, 4, 5}, {3, 2, 6, 7, 8, 9}, {5, 4, 10, 11, 12, 13}, {4, 3, 9, 14, 15, 10}}},
		{24, [][]int32{{0, 1, 2, 3, 4, 5}, {0, 1, 6, 7, 8, 9}, {1, 2, 10, 11, 12, 6}, {2, 3, 13, 14, 15, 10},
			{3, 4, 16, 17, 18, 13}, {4, 5, 19, 20, 21, 16}, {5, 0, 9, 22, 23, 19}}},
	}
	var out []*graph.Graph
	for _, s := range systems {
		seen := map[[2]int32]bool{}
		var es [][2]int32
		for _, r := range s.rings {
			for _, e := range ring(nil, r...) {
				if e[0] > e[1] {
					e[0], e[1] = e[1], e[0]
				}
				if !seen[e] {
					seen[e] = true
					es = append(es, e)
				}
			}
		}
		out = append(out, fromEdges(s.n, es, chem.BondAromatic))
	}
	return out
}

// symmetricGraphs is the families refinement leaves with ties.
func symmetricGraphs() []*graph.Graph {
	var gs []*graph.Graph
	for k := 3; k <= 12; k++ {
		gs = append(gs, cycle(k, 0, 0))
	}
	for k := 3; k <= 8; k++ {
		gs = append(gs, prism(k))
	}
	for k := 3; k <= 6; k++ {
		gs = append(gs, complete(k))
	}
	gs = append(gs, completeBipartite(3, 3), petersen(), hypercube(2), hypercube(3))
	return append(gs, fusedRings()...)
}

// weighted returns a copy of g whose vertices and edges carry weights
// drawn from a small set, so that weights alone tell some apart.
func weighted(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	ws := []float64{0, 1, 2.5}
	b := graph.NewBuilder(g.N(), g.M())
	for v := 0; v < g.N(); v++ {
		b.AddWeightedVertex(g.VLabelAt(v), ws[rng.Intn(len(ws))])
	}
	for _, e := range g.Edges() {
		b.AddWeightedEdge(e.U, e.V, e.Label, ws[rng.Intn(len(ws))])
	}
	return b.MustBuild()
}

// TestGraphKeyMatchesMinCodeKey: over molecule queries, random graphs and
// symmetric families, each with three permuted copies, two keys are equal
// exactly when their reference keys are, except that a capped key may
// differ from an isomorphic graph's. Molecule queries are never capped.
func TestGraphKeyMatchesMinCodeKey(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	type set struct {
		name      string
		gs        []*graph.Graph
		molecules bool
	}
	sets := []set{
		{"Q16/n=3000", chem.SampleQueries(chem.Generate(3000, chem.Config{Seed: 1}), 400, 16, 1), true},
		{"Q24/n=5000", chem.SampleQueries(chem.Generate(5000, chem.Config{Seed: 1}), 400, 24, 2), true},
		{"weighted Q12", chem.SampleQueries(chem.Generate(300, chem.Config{Seed: 2, Weighted: true}), 100, 12, 3), true},
		{"symmetric", symmetricGraphs(), false},
	}
	var random, weightedRandom []*graph.Graph
	for i := 0; i < 600; i++ {
		g := randomConnected(rng, 10, 1+i%3, 1+i%2)
		random = append(random, g)
		weightedRandom = append(weightedRandom, weighted(g, rng))
	}
	sets = append(sets, set{"random", random, false}, set{"weighted random", weightedRandom, false})
	for _, s := range sets {
		var keys, refs []string
		for _, g := range s.gs {
			for c := 0; c < 4; c++ {
				h := g
				if c > 0 {
					h = permute(g, rng)
				}
				keys, refs = append(keys, GraphKey(h)), append(refs, minCodeKey(h))
			}
		}
		var counts [3]int
		refOf := map[string]string{} // key → reference key
		keyOf := map[string]string{} // reference key → uncapped key
		for i, k := range keys {
			counts[keyKind(k)]++
			if r, ok := refOf[k]; ok && r != refs[i] {
				t.Fatalf("%s: one key for two graphs the reference tells apart", s.name)
			}
			refOf[k] = refs[i]
			if keyKind(k) == keyOwnOrder {
				continue
			}
			if k2, ok := keyOf[refs[i]]; ok && k2 != k {
				t.Fatalf("%s: isomorphic graphs got the keys %q and %q", s.name, k2, k)
			}
			keyOf[refs[i]] = k
		}
		if s.molecules && counts[keyOwnOrder] > 0 {
			t.Errorf("%s: %d molecule queries took the capped branch", s.name, counts[keyOwnOrder])
		}
		t.Logf("%s: %d keys, %d distinct: discrete %d, fallback %d, capped %d",
			s.name, len(keys), len(refOf), counts[keyDiscrete], counts[keyFallback], counts[keyOwnOrder])
	}
}

// TestGraphKeyBounded: graphs whose symmetry once made the key's search
// grow factorially get their key in well under 10 ms.
func TestGraphKeyBounded(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"K12", complete(12)},
		{"K6,6", completeBipartite(6, 6)},
		{"Petersen", petersen()},
		{"4-cube", hypercube(4)},
		{"C24", cycle(24, 0, 0)},
	} {
		best := time.Hour
		for i := 0; i < 3; i++ {
			g := c.g.Clone()
			start := time.Now()
			GraphKey(g)
			best = min(best, time.Since(start))
		}
		if best > 10*time.Millisecond {
			t.Errorf("%s: key took %v", c.name, best)
		}
		t.Logf("%s: %v, %s", c.name, best, [...]string{"discrete", "fallback", "capped"}[keyKind(GraphKey(c.g))])
	}
}

// TestGraphKeyConcurrent: goroutines sharing the pooled scratch key fresh
// copies of the same queries as one goroutine does.
func TestGraphKeyConcurrent(t *testing.T) {
	qs := append(chem.SampleQueries(chem.Generate(300, chem.Config{Seed: 3}), 100, 16, 4), fusedRings()...)
	want := make([]string, len(qs))
	for i, q := range qs {
		want[i] = GraphKey(q.Clone())
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range qs {
				if GraphKey(q.Clone()) != want[i] {
					t.Errorf("query %d: another key under concurrency", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkGraphKey pays the key on every iteration: each one keys a fresh
// clone, so no cached key is read.
func BenchmarkGraphKey(b *testing.B) {
	for _, c := range []struct {
		name string
		qs   []*graph.Graph
	}{
		{"Q16/n=3000", chem.SampleQueries(chem.Generate(3000, chem.Config{Seed: 1}), 400, 16, 1)},
		{"Q24/n=5000", chem.SampleQueries(chem.Generate(5000, chem.Config{Seed: 1}), 400, 24, 2)},
		{"fused-ring", slices.Repeat(fusedRings()[3:4], 400)}, // pyrene, a fallback
	} {
		b.Run(c.name, func(b *testing.B) {
			fresh := make([]*graph.Graph, len(c.qs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(c.qs)
				if j == 0 {
					b.StopTimer()
					for k, q := range c.qs {
						fresh[k] = q.Clone()
					}
					b.StartTimer()
				}
				GraphKey(fresh[j])
			}
		})
	}
}
