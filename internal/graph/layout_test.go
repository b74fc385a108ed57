package graph

import (
	"bytes"
	"math"
	"testing"
)

// spare is the capacity g's arrays hold beyond their content.
func spare(g *Graph) int {
	return cap(g.vlabels) - len(g.vlabels) + cap(g.vweights) - len(g.vweights) +
		cap(g.edges) - len(g.edges) + cap(g.eweights) - len(g.eweights) + cap(g.adj) - len(g.adj)
}

// TestConstructorsLayOutExactly: every constructor leaves a graph whose
// arrays are exactly as long as their content, whatever its source held —
// a builder sized for more, the text reader's fixed guess — and keeps the
// edge-weight column exactly when a weight has a non-zero bit.
func TestConstructorsLayOutExactly(t *testing.T) {
	b := NewBuilder(64, 64)
	for i := range 5 {
		b.AddWeightedVertex(VLabel(i), float64(i))
	}
	for i := range int32(4) {
		b.AddWeightedEdge(i, i+1, ELabel(i), float64(i)/2)
	}
	weighted := b.MustBuild()
	var text bytes.Buffer
	if err := WriteDB(&text, []*Graph{weighted, path(3, 1, 2)}); err != nil {
		t.Fatal(err)
	}
	read, err := ReadDB(&text)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := DecodeBinary(weighted.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	extracted, _, _ := Fragment{Host: weighted, Edges: []int32{1, 2}}.Extract()
	for _, tc := range []struct {
		name     string
		g        *Graph
		weighted bool
	}{
		{"oversized NewBuilder", weighted, true},
		{"ReadDB weighted", read[0], true},
		{"ReadDB", read[1], false},
		{"DecodeBinary", decoded, true},
		{"Fragment.Extract", extracted, true},
		{"Clone", weighted.Clone(), true},
		{"Relabel", weighted.Relabel(make([]VLabel, 5, 64), make([]ELabel, 4)), false},
		{"Skeleton", weighted.Skeleton(), false},
	} {
		if n := spare(tc.g); n != 0 {
			t.Errorf("%s: %d spare slots", tc.name, n)
		}
		if _, ew := Records(tc.g); (ew != nil) != tc.weighted {
			t.Errorf("%s: edge-weight column %v", tc.name, ew)
		}
	}
	// Zero weights get no column; a negative zero keeps one, since the
	// canonical key tells its bits apart.
	for _, w := range []float64{0, math.Copysign(0, -1)} {
		b := NewBuilder(2, 1)
		b.AddVertex(0)
		b.AddVertex(0)
		b.AddWeightedEdge(0, 1, 0, w)
		g := b.MustBuild()
		if _, ew := Records(g); (ew != nil) != math.Signbit(w) {
			t.Errorf("weight %v: column %v", w, ew)
		}
		if g.EdgeAt(0).Weight != w || math.Signbit(g.EdgeAt(0).Weight) != math.Signbit(w) {
			t.Errorf("weight %v reads back as %v", w, g.EdgeAt(0).Weight)
		}
	}
}

// TestBuilderWeightColumnIsLazy: a builder starts its edge-weight column
// at the first weight with a non-zero bit, so an unweighted build
// allocates none, and a column started late reads zero for the edges
// added before it.
func TestBuilderWeightColumnIsLazy(t *testing.T) {
	b := NewBuilder(4, 3)
	for range 4 {
		b.AddVertex(0)
	}
	b.AddEdge(0, 1, 0)
	b.AddWeightedEdge(1, 2, 0, 0)
	if b.eweights != nil {
		t.Fatalf("zero weights started a column: %v", b.eweights)
	}
	b.AddWeightedEdge(2, 3, 0, 1.5)
	if len(b.eweights) != 3 || cap(b.eweights) != cap(b.edges) {
		t.Fatalf("column len %d cap %d, edges cap %d", len(b.eweights), cap(b.eweights), cap(b.edges))
	}
	g := b.MustBuild()
	for e, w := range []float64{0, 0, 1.5} {
		if got := g.EdgeAt(e).Weight; got != w {
			t.Errorf("edge %d weight %v, want %v", e, got, w)
		}
	}
	if n := spare(g); n != 0 {
		t.Errorf("%d spare slots", n)
	}
}

// TestFPSaturatedHostAdmitsItsSubgraphs: a host with more than 255 edges
// in one label bucket and more than 255 vertices of each degree tail
// saturates its 8-bit counters, and still admits every subgraph of its
// own at σ = 0 under both floors.
func TestFPSaturatedHostAdmitsItsSubgraphs(t *testing.T) {
	const side = 20 // a 20×20 grid: 400 vertices, 760 edges of label 1
	b := NewBuilder(side*side, 2*side*(side-1))
	for range side * side {
		b.AddVertex(3)
	}
	for r := range int32(side) {
		for c := range int32(side) {
			v := r*side + c
			if c+1 < side {
				b.AddEdge(v, v+1, 1)
			}
			if r+1 < side {
				b.AddEdge(v, v+side, 1)
			}
		}
	}
	host := b.MustBuild()
	fp := host.FP()
	if fp.ELab[labelBucket(1, fpEdgeBuckets)] != 255 || fp.VLab[labelBucket(3, fpVertexBuckets)] != 255 {
		t.Fatalf("label buckets not saturated: %+v", *fp)
	}
	for k := range 4 { // degree >= 1..4: 400, 400, 396, 324 vertices
		if fp.DegTail[k] != 255 {
			t.Fatalf("degree tail %d = %d, not saturated", k, fp.DegTail[k])
		}
	}
	for _, m := range []int{1, 16, 100, 255, 256, 300, 511, 600, host.M()} {
		edges := make([]int32, m)
		for i := range edges {
			edges[i] = int32(i)
		}
		sub, _, _ := Fragment{Host: host, Edges: edges}.Extract()
		for _, fl := range [][2]float64{{0, 1}, {1, 1}} {
			if qfp := NewQueryFP(sub, fl[0], fl[1]); !qfp.Admissible(fp, 0) {
				t.Fatalf("host refuses its own %d-edge subgraph (floors %v): query %+v", m, fl, *sub.FP())
			}
		}
	}
}
