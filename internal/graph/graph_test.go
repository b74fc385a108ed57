package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// path builds a labeled path v0-v1-...-vn.
func path(n int, vl VLabel, el ELabel) *Graph {
	b := NewBuilder(n+1, n)
	for i := 0; i <= n; i++ {
		b.AddVertex(vl)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32(i+1), el)
	}
	return b.MustBuild()
}

// cycle builds an n-cycle.
func cycle(n int, vl VLabel, el ELabel) *Graph {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.AddVertex(vl)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n), el)
	}
	return b.MustBuild()
}

func TestBuilderBasics(t *testing.T) {
	g := cycle(6, 1, 2)
	if g.N() != 6 || g.M() != 6 {
		t.Fatalf("got n=%d m=%d, want 6/6", g.N(), g.M())
	}
	for v := 0; v < 6; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("vertex %d degree = %d, want 2", v, g.Degree(v))
		}
	}
	if !g.Connected() {
		t.Error("cycle reported disconnected")
	}
	if g.EdgeBetween(0, 1) < 0 || g.EdgeBetween(0, 5) < 0 {
		t.Error("missing expected edges")
	}
	if g.EdgeBetween(0, 3) != -1 {
		t.Error("found non-existent edge 0-3")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(2, 1)
	v := b.AddVertex(0)
	b.AddEdge(v, v, 0)
	if _, err := b.Build(); err == nil {
		t.Error("self loop not rejected")
	}
	b = NewBuilder(2, 2)
	u, w := b.AddVertex(0), b.AddVertex(0)
	b.AddEdge(u, w, 0)
	b.AddEdge(w, u, 1)
	if _, err := b.Build(); err == nil {
		t.Error("duplicate edge not rejected")
	}
	b = NewBuilder(1, 1)
	b.AddVertex(0)
	b.AddEdge(0, 5, 0)
	if _, err := b.Build(); err == nil {
		t.Error("dangling endpoint not rejected")
	}
}

func TestDisconnected(t *testing.T) {
	b := NewBuilder(4, 2)
	for i := 0; i < 4; i++ {
		b.AddVertex(0)
	}
	b.AddEdge(0, 1, 0)
	b.AddEdge(2, 3, 0)
	g := b.MustBuild()
	if g.Connected() {
		t.Error("two components reported connected")
	}
}

func TestSkeletonZeroesLabels(t *testing.T) {
	g := cycle(4, 7, 9)
	s := g.Skeleton()
	for v := 0; v < s.N(); v++ {
		if s.VLabelAt(v) != 0 {
			t.Fatalf("skeleton vertex %d label = %d", v, s.VLabelAt(v))
		}
	}
	for _, e := range s.Edges() {
		if e.Label != 0 || e.Weight != 0 {
			t.Fatalf("skeleton edge labeled: %+v", e)
		}
	}
	// Original untouched.
	if g.VLabelAt(0) != 7 || g.EdgeAt(0).Label != 9 {
		t.Error("Skeleton mutated the original graph")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := path(3, 1, 1)
	c := g.Clone()
	c.vlabels[0] = 99
	if g.VLabelAt(0) == 99 {
		t.Error("clone shares vertex labels")
	}
}

func TestFragmentVerticesAndExtract(t *testing.T) {
	g := cycle(6, 3, 5)
	f := Fragment{Host: g, Edges: []int32{0, 1, 2}} // path 0-1-2-3
	verts := f.Vertices()
	if !reflect.DeepEqual(verts, []int32{0, 1, 2, 3}) {
		t.Fatalf("vertices = %v", verts)
	}
	sub, vmap, emap := f.Extract()
	if sub.N() != 4 || sub.M() != 3 {
		t.Fatalf("extracted %d/%d, want 4/3", sub.N(), sub.M())
	}
	if !reflect.DeepEqual(vmap, []int32{0, 1, 2, 3}) || !reflect.DeepEqual(emap, []int32{0, 1, 2}) {
		t.Fatalf("vmap=%v emap=%v", vmap, emap)
	}
	if sub.VLabelAt(0) != 3 || sub.EdgeAt(0).Label != 5 {
		t.Error("extract dropped labels")
	}
	if !sub.Connected() {
		t.Error("extracted fragment disconnected")
	}
}

// enumerateBrute lists connected edge subsets up to maxEdges by filtering
// all subsets — only usable on tiny graphs, as an oracle.
func enumerateBrute(g *Graph, maxEdges int) map[string]bool {
	out := map[string]bool{}
	m := g.M()
	for mask := 1; mask < 1<<m; mask++ {
		var edges []int32
		for e := 0; e < m; e++ {
			if mask&(1<<e) != 0 {
				edges = append(edges, int32(e))
			}
		}
		if len(edges) > maxEdges {
			continue
		}
		f := Fragment{Host: g, Edges: edges}
		sub, _, _ := f.Extract()
		if sub.Connected() {
			out[fmtEdges(edges)] = true
		}
	}
	return out
}

func fmtEdges(edges []int32) string {
	b := make([]byte, 0, len(edges)*3)
	for _, e := range edges {
		b = append(b, byte(e), ',')
	}
	return string(b)
}

func TestEnumerateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(5)
		b := NewBuilder(n, n*2)
		for i := 0; i < n; i++ {
			b.AddVertex(0)
		}
		// random edges with ~50% density, dedup via builder map
		added := map[[2]int32]bool{}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					added[[2]int32{int32(i), int32(j)}] = true
					b.AddEdge(int32(i), int32(j), 0)
				}
			}
		}
		g := b.MustBuild()
		if g.M() == 0 || g.M() > 10 {
			continue
		}
		for _, maxE := range []int{1, 2, 3, g.M()} {
			want := enumerateBrute(g, maxE)
			got := map[string]bool{}
			EnumerateConnectedSubgraphs(g, maxE, func(edges []int32) bool {
				sorted := slices.Sorted(slices.Values(edges))
				key := fmtEdges(sorted)
				if got[key] {
					t.Fatalf("duplicate subgraph %v (trial %d)", edges, trial)
				}
				got[key] = true
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("trial %d maxE=%d: got %d subgraphs, want %d", trial, maxE, len(got), len(want))
			}
			for k := range got {
				if !want[k] {
					t.Fatalf("trial %d: enumerated non-connected or bogus subset", trial)
				}
			}
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	g := cycle(6, 0, 0)
	count := 0
	EnumerateConnectedSubgraphs(g, 3, func([]int32) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop delivered %d callbacks, want 5", count)
	}
}

func TestRandomConnectedSubgraph(t *testing.T) {
	g := cycle(8, 0, 0)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		m := 1 + rng.Intn(6)
		edges := RandomConnectedSubgraph(g, m, rng.Intn)
		if len(edges) != m {
			t.Fatalf("got %d edges, want %d", len(edges), m)
		}
		f := Fragment{Host: g, Edges: edges}
		sub, _, _ := f.Extract()
		if !sub.Connected() {
			t.Fatalf("sampled subgraph disconnected: %v", edges)
		}
	}
	if RandomConnectedSubgraph(g, 99, rng.Intn) != nil {
		t.Error("oversized request should return nil")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	g1 := cycle(5, 2, 3)
	b := NewBuilder(3, 2)
	b.AddWeightedVertex(1, 0.5)
	b.AddWeightedVertex(2, 1.5)
	b.AddWeightedVertex(3, 2.5)
	b.AddWeightedEdge(0, 1, 7, 0.25)
	b.AddWeightedEdge(1, 2, 8, 0.75)
	g2 := b.MustBuild()

	var buf bytes.Buffer
	if err := WriteDB(&buf, []*Graph{g1, g2}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip produced %d graphs", len(back))
	}
	if back[0].String() != g1.String() {
		t.Errorf("graph 1 mismatch:\n got %s\nwant %s", back[0].String(), g1.String())
	}
	if back[1].VWeightAt(2) != 2.5 || back[1].EdgeAt(1).Weight != 0.75 {
		t.Error("weights lost in round trip")
	}
}

func TestCodecErrors(t *testing.T) {
	cases := []string{
		"v 0 1\n",             // vertex before t
		"t # 0\ne 0 1 0\n",    // edge before vertices
		"t # 0\nv 1 0\n",      // wrong vertex numbering
		"t # 0\nv 0\n",        // malformed vertex
		"t # 0\nx what\n",     // unknown record
		"t # 0\nv 0 0\ne 0\n", // malformed edge
	}
	for _, c := range cases {
		if _, err := ReadDB(bytes.NewBufferString(c)); err == nil {
			t.Errorf("input %q parsed without error", c)
		}
	}
}

func TestCodecQuickRoundTrip(t *testing.T) {
	// Property: any random connected labeled graph survives a round trip.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		b := NewBuilder(n, n)
		for i := 0; i < n; i++ {
			b.AddVertex(VLabel(rng.Intn(5)))
		}
		for i := 1; i < n; i++ { // random spanning tree keeps it simple
			b.AddEdge(int32(rng.Intn(i)), int32(i), ELabel(rng.Intn(4)))
		}
		g := b.MustBuild()
		var buf bytes.Buffer
		if err := WriteDB(&buf, []*Graph{g}); err != nil {
			return false
		}
		back, err := ReadDB(&buf)
		if err != nil || len(back) != 1 {
			return false
		}
		return back[0].String() == g.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
