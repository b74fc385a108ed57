package index

import (
	"bytes"
	"math/rand"
	"testing"

	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/iso"
)

// TestPairSectionlessImage: an image carries no fingerprints (the graphs
// do), so it loads and pairs with its graphs alone, to the bitmaps a fresh
// build lays out.
func TestPairSectionlessImage(t *testing.T) {
	metric := distance.EdgeMutation{}
	x, db := buildSmall(t, metric, 62, 18)
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	load := func() *Index {
		y, err := LoadBytes(buf.Bytes(), metric)
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	y := load()
	if err := y.Pair(db); err != nil {
		t.Fatal(err)
	}
	if y.Memory().BitmapBytes != x.Memory().BitmapBytes {
		t.Fatal("a paired image holds other bitmaps than the build")
	}
	// Wrong database size must refuse rather than lay out garbage.
	z := load()
	if err := z.Pair(db[:len(db)-1]); err == nil || z.Memory().BitmapBytes != 0 {
		t.Fatalf("Pair accepted a mismatched database (err %v)", err)
	}
}

// TestQueryFPAdmissibility is the prescreen's safety property: for any
// graph whose exact superimposed distance is within sigma, the
// fingerprint test must pass — a rejection is a proof of d > sigma, so a
// single false rejection would drop a correct answer.
func TestQueryFPAdmissibility(t *testing.T) {
	for _, metric := range []distance.Metric{distance.EdgeMutation{}, distance.FullMutation{}} {
		_, db := buildSmall(t, metric, 63, 24)
		vf, ef := distance.CostFloors(metric)
		rng := rand.New(rand.NewSource(64))
		checked, rejected := 0, 0
		for trial := 0; trial < 40; trial++ {
			host := db[rng.Intn(len(db))]
			edges := graph.RandomConnectedSubgraph(host, 2+rng.Intn(3), rng.Intn)
			if edges == nil {
				continue
			}
			q, _, _ := graph.Fragment{Host: host, Edges: edges}.Extract()
			qfp := graph.NewQueryFP(q, vf, ef)
			sigma := float64(rng.Intn(3))
			for id := int32(0); id < int32(len(db)); id++ {
				d := iso.MinSuperimposedDistance(q, db[id], metric, sigma)
				ok := qfp.Admissible(db[id].FP(), sigma)
				if !distance.IsInfinite(d) && d <= sigma && !ok {
					t.Fatalf("metric %T: prescreen rejected an answer: d(q,%d)=%g <= sigma=%g", metric, id, d, sigma)
				}
				if !ok {
					rejected++
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatal("no pairs checked")
		}
		if rejected == 0 {
			t.Errorf("metric %T: prescreen rejected nothing across %d pairs — vacuous test", metric, checked)
		}
	}
}

// TestDeltaFPStructuralBounds: a graph's fingerprint admits the graph
// itself and enforces the structural bounds.
func TestDeltaFPStructuralBounds(t *testing.T) {
	metric := distance.EdgeMutation{}
	_, db := buildSmall(t, metric, 65, 12)
	g := db[0]
	vf, ef := distance.CostFloors(metric)
	qfp := graph.NewQueryFP(g, vf, ef)
	if !qfp.Admissible(g.FP(), 0) {
		t.Fatal("graph's own fingerprint rejected at sigma 0")
	}
	// A query strictly larger than the graph must be refuted by size.
	b := graph.NewBuilder(g.N()+1, g.M()+1)
	for v := 0; v < g.N(); v++ {
		b.AddVertex(g.VLabelAt(v))
	}
	b.AddVertex(0)
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V, e.Label)
	}
	b.AddEdge(0, int32(g.N()), 0)
	big := b.MustBuild()
	bigFP := graph.NewQueryFP(big, vf, ef)
	if bigFP.Admissible(g.FP(), 100) {
		t.Fatal("size bound failed: larger query admitted against smaller graph")
	}
}
