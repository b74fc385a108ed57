package index

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/iso"
)

// TestGraphFPPersistRoundTrip: the fingerprint table must survive the
// image exactly.
func TestGraphFPPersistRoundTrip(t *testing.T) {
	metric := distance.EdgeMutation{}
	x, _ := buildSmall(t, metric, 61, 18)
	if x.fps == nil {
		t.Fatal("built index carries no fingerprints")
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := Load(&buf, metric)
	if err != nil {
		t.Fatal(err)
	}
	if y.fps == nil {
		t.Fatal("fingerprints lost across save/load")
	}
	if !reflect.DeepEqual(x.fps, y.fps) {
		t.Fatalf("fingerprint table changed across save/load:\nsaved  %+v\nloaded %+v", x.fps[0], y.fps[0])
	}
}

// TestPairSectionlessImage: an image written without the fingerprint
// section (the header flag allows it) loads with no fingerprint table;
// Pair recomputes exactly what a fresh build produces.
func TestPairSectionlessImage(t *testing.T) {
	metric := distance.EdgeMutation{}
	x, db := buildSmall(t, metric, 62, 18)
	built := x.fps
	x.fps = nil // Save omits the section for an index without a table
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	load := func() *Index {
		y, err := Load(bytes.NewReader(buf.Bytes()), metric)
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	y := load()
	if y.fps != nil {
		t.Fatal("section-less image should load without fingerprints")
	}
	if y.FingerprintAt(0) != nil {
		t.Fatal("FingerprintAt must return nil without a table")
	}
	if err := y.Pair(db); err != nil {
		t.Fatal(err)
	}
	if y.fps == nil {
		t.Fatal("Pair did not build the table")
	}
	if !reflect.DeepEqual(built, y.fps) {
		t.Fatal("recomputed fingerprints differ from the built ones")
	}
	// Wrong database size must refuse rather than fingerprint garbage.
	z := load()
	if err := z.Pair(db[:len(db)-1]); err == nil || z.fps != nil || z.Memory().BitmapBytes != 0 {
		t.Fatalf("Pair accepted a mismatched database (err %v)", err)
	}
}

// TestQueryFPAdmissibility is the prescreen's safety property: for any
// graph whose exact superimposed distance is within sigma, the
// fingerprint test must pass — a rejection is a proof of d > sigma, so a
// single false rejection would drop a correct answer.
func TestQueryFPAdmissibility(t *testing.T) {
	for _, metric := range []distance.Metric{distance.EdgeMutation{}, distance.FullMutation{}} {
		x, db := buildSmall(t, metric, 63, 24)
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
			qfp := NewQueryFP(q, vf, ef)
			sigma := float64(rng.Intn(3))
			for id := int32(0); id < int32(len(db)); id++ {
				d := iso.MinSuperimposedDistance(q, db[id], metric, sigma)
				ok := qfp.Admissible(x.FingerprintAt(id), sigma)
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

// TestDeltaFPStructuralBounds: a delta graph's fingerprint admits the
// graph itself and enforces the structural bounds.
func TestDeltaFPStructuralBounds(t *testing.T) {
	metric := distance.EdgeMutation{}
	_, db := buildSmall(t, metric, 65, 12)
	g := db[0]
	fp := DeltaFP(g)
	vf, ef := distance.CostFloors(metric)
	qfp := NewQueryFP(g, vf, ef)
	if !qfp.Admissible(&fp, 0) {
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
	bigFP := NewQueryFP(big, vf, ef)
	if bigFP.Admissible(&fp, 100) {
		t.Fatal("size bound failed: larger query admitted against smaller graph")
	}
}
