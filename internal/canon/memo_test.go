package canon

import (
	"math/rand"
	"sync"
	"testing"

	"pis/internal/graph"
)

// memoRandomGraph builds a random connected labeled graph with n vertices
// and a few extra edges, exercising paths, cycles, and general shapes.
func memoRandomGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	b := graph.NewBuilder(n, n-1+extra)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VLabel(rng.Intn(4)))
	}
	for i := 1; i < n; i++ {
		b.AddEdge(int32(rng.Intn(i)), int32(i), graph.ELabel(rng.Intn(3)))
	}
	g := b.MustBuild()
	for t := 0; t < extra; t++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		nb := graph.NewBuilder(n, g.M()+1)
		for i := 0; i < n; i++ {
			nb.AddVertex(g.VLabelAt(i))
		}
		for _, e := range g.Edges() {
			nb.AddEdge(e.U, e.V, e.Label)
		}
		nb.AddEdge(u, v, graph.ELabel(rng.Intn(3)))
		g = nb.MustBuild()
	}
	return g
}

func sameCode(a, b Code) bool { return a.Compare(b) == 0 }

func sameEmbs(a, b []Embedding) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Vertices) != len(b[i].Vertices) || len(a[i].Edges) != len(b[i].Edges) {
			return false
		}
		for j := range a[i].Vertices {
			if a[i].Vertices[j] != b[i].Vertices[j] {
				return false
			}
		}
		for j := range a[i].Edges {
			if a[i].Edges[j] != b[i].Edges[j] {
				return false
			}
		}
	}
	return true
}

// TestMemoMatchesDirect: memoized results are bit-identical to direct
// MinCodeUnlabeled on the skeleton, on both first (miss) and second (hit)
// lookups, across random shapes.
func TestMemoMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mm := NewMemo()
	for trial := 0; trial < 200; trial++ {
		g := memoRandomGraph(rng, 2+rng.Intn(6), rng.Intn(2))
		wantCode, wantEmbs := MinCodeUnlabeled(g.Skeleton())
		for pass := 0; pass < 2; pass++ {
			code, embs := mm.MinCodeUnlabeled(g)
			if !sameCode(code, wantCode) {
				t.Fatalf("trial %d pass %d: code %v != %v for %v", trial, pass, code, wantCode, g)
			}
			if !sameEmbs(embs, wantEmbs) {
				t.Fatalf("trial %d pass %d: embeddings differ for %v", trial, pass, g)
			}
		}
	}
	if mm.Hits() == 0 {
		t.Error("no cache hits despite repeated lookups")
	}
	if mm.Len() > int(mm.Misses()) {
		t.Errorf("cached %d structures with only %d misses", mm.Len(), mm.Misses())
	}
}

// TestMemoIgnoresLabels: two graphs with the same structure but different
// labels share one cache entry and one canonical result.
func TestMemoIgnoresLabels(t *testing.T) {
	build := func(vl graph.VLabel, el graph.ELabel) *graph.Graph {
		b := graph.NewBuilder(3, 2)
		b.AddVertex(vl)
		b.AddVertex(0)
		b.AddVertex(vl)
		b.AddEdge(0, 1, el)
		b.AddEdge(1, 2, 0)
		return b.MustBuild()
	}
	mm := NewMemo()
	c1, e1 := mm.MinCodeUnlabeled(build(3, 2))
	c2, e2 := mm.MinCodeUnlabeled(build(7, 5))
	if !sameCode(c1, c2) || !sameEmbs(e1, e2) {
		t.Fatal("label-only differences changed the cached skeleton code")
	}
	if mm.Len() != 1 || mm.Hits() != 1 {
		t.Errorf("want 1 entry / 1 hit, got %d / %d", mm.Len(), mm.Hits())
	}
}

// TestMemoKeyDistinguishesStructures: same vertex count, different edge
// lists must never collide.
func TestMemoKeyDistinguishesStructures(t *testing.T) {
	path := func() *graph.Graph {
		b := graph.NewBuilder(4, 3)
		for i := 0; i < 4; i++ {
			b.AddVertex(0)
		}
		b.AddEdge(0, 1, 0)
		b.AddEdge(1, 2, 0)
		b.AddEdge(2, 3, 0)
		return b.MustBuild()
	}()
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
	mm := NewMemo()
	c1, _ := mm.MinCodeUnlabeled(path)
	c2, _ := mm.MinCodeUnlabeled(star)
	if sameCode(c1, c2) {
		t.Fatal("path and star skeletons produced the same code")
	}
	if mm.Len() != 2 {
		t.Errorf("want 2 distinct entries, got %d", mm.Len())
	}
}

// TestMemoConcurrent hammers one memo from many goroutines (run with
// -race) and checks every result against the direct computation.
func TestMemoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var gs []*graph.Graph
	for i := 0; i < 24; i++ {
		gs = append(gs, memoRandomGraph(rng, 2+rng.Intn(5), rng.Intn(2)))
	}
	type want struct {
		code Code
		embs []Embedding
	}
	wants := make([]want, len(gs))
	for i, g := range gs {
		wants[i].code, wants[i].embs = MinCodeUnlabeled(g.Skeleton())
	}
	mm := NewMemo()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				k := r.Intn(len(gs))
				code, embs := mm.MinCodeUnlabeled(gs[k])
				if !sameCode(code, wants[k].code) || !sameEmbs(embs, wants[k].embs) {
					select {
					case errs <- "concurrent lookup diverged from direct computation":
					default:
					}
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if got := mm.Hits() + mm.Misses(); got != 8*500 {
		t.Errorf("lookup count %d != %d", got, 8*500)
	}
}

func BenchmarkMemoHit(b *testing.B) {
	g := memoRandomGraph(rand.New(rand.NewSource(3)), 6, 1)
	mm := NewMemo()
	mm.MinCodeUnlabeled(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mm.MinCodeUnlabeled(g)
	}
}

// TestMemoLookupMatchesEntry: probing by renumbered endpoints finds
// exactly the entry the Graph form stored — same pointer, so both forms
// encode one key — misses before that, and the entry's Key is the code's.
func TestMemoLookupMatchesEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mm := NewMemo()
	for trial := 0; trial < 200; trial++ {
		g := memoRandomGraph(rng, 2+rng.Intn(6), rng.Intn(3))
		var ends []int32
		for _, e := range g.Edges() {
			ends = append(ends, e.U, e.V)
		}
		before := mm.Lookup(g.N(), ends)
		e := mm.Entry(g)
		if before != nil && before != e {
			t.Fatalf("trial %d: Lookup and Entry disagree on a cached structure", trial)
		}
		if got := mm.Lookup(g.N(), ends); got != e {
			t.Fatalf("trial %d: Lookup after Entry = %p, want %p", trial, got, e)
		}
		if e.Key != e.Code.Key() {
			t.Fatalf("trial %d: entry key differs from its code's", trial)
		}
		code, embs := MinCodeUnlabeled(g.Skeleton())
		if !sameCode(e.Code, code) || !sameEmbs(e.Embs, embs) {
			t.Fatalf("trial %d: cached entry differs from direct canonicalization", trial)
		}
	}
	if mm.Lookup(3, []int32{0, 1, 1, 2, 0, 2, 9, 10}) != nil {
		t.Fatal("Lookup invented an entry for an unseen structure")
	}
}

// TestMemoLookupDoesNotAllocate pins the hit path.
func TestMemoLookupDoesNotAllocate(t *testing.T) {
	mm := NewMemo()
	g := memoRandomGraph(rand.New(rand.NewSource(3)), 6, 1)
	var ends []int32
	for _, e := range g.Edges() {
		ends = append(ends, e.U, e.V)
	}
	mm.Entry(g)
	if avg := testing.AllocsPerRun(100, func() {
		if mm.Lookup(g.N(), ends) == nil {
			t.Fatal("miss on a cached structure")
		}
	}); avg != 0 {
		t.Errorf("Lookup hit allocates %.1f times, want 0", avg)
	}
}
