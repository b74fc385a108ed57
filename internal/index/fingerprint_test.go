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

// TestPairSectionlessImage: an image carries no fingerprints, so it loads
// with no fingerprint table; Pair computes exactly what a fresh build
// produces.
func TestPairSectionlessImage(t *testing.T) {
	metric := distance.EdgeMutation{}
	x, db := buildSmall(t, metric, 62, 18)
	built := x.fps
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
		t.Fatal("an image should load without fingerprints")
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

// admissibleFull is Admissible as it read every bucket and every degree
// tail: the reference the sparse loops are held to.
func admissibleFull(qfp *QueryFP, g *GraphFP, sigma float64) bool {
	q := &qfp.fp
	if q.NV > g.NV || q.NE > g.NE {
		return false
	}
	for k := 0; k < fpDegTail; k++ {
		if q.DegTail[k] > g.DegTail[k] {
			return false
		}
	}
	lb := 0.0
	if qfp.eFloor > 0 {
		deficit := 0
		for b := 0; b < fpEdgeBuckets; b++ {
			deficit += max(int(q.ELab[b])-int(g.ELab[b]), 0)
		}
		lb = float64(deficit) * qfp.eFloor
	}
	if qfp.vFloor > 0 {
		deficit := 0
		for b := 0; b < fpVertexBuckets; b++ {
			deficit += max(int(q.VLab[b])-int(g.VLab[b]), 0)
		}
		lb += float64(deficit) * qfp.vFloor
	}
	return lb <= sigma
}

// randomFP draws a fingerprint whose counters are mostly small, often
// zero and sometimes saturated, with degree tails that only fall.
func randomFP(rng *rand.Rand) GraphFP {
	count := func() uint16 {
		switch rng.Intn(8) {
		case 0, 1:
			return 0
		case 3:
			return ^uint16(0)
		}
		return uint16(rng.Intn(6))
	}
	var fp GraphFP
	fp.NV, fp.NE = int32(rng.Intn(40)), int32(rng.Intn(50))
	for k := range fp.DegTail {
		fp.DegTail[k] = count()
		if k > 0 {
			fp.DegTail[k] = min(fp.DegTail[k], fp.DegTail[k-1])
		}
	}
	for b := range fp.ELab {
		fp.ELab[b] = count()
	}
	for b := range fp.VLab {
		fp.VLab[b] = count()
	}
	return fp
}

// TestAdmissibleMatchesFullScan: the sparse fingerprint test gives the
// full-bucket verdict on random fingerprints, saturated counters
// included, with either floor zero or both set, at every radius a search
// uses.
func TestAdmissibleMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	floors := [][2]float64{{0, 1}, {1, 0}, {1, 1}, {0.5, 0.25}, {0, 0}}
	verdicts := [2]int{}
	for trial := 0; trial < 20000; trial++ {
		fl := floors[trial%len(floors)]
		qfp := newQueryFP(randomFP(rng), fl[0], fl[1])
		g := randomFP(rng)
		if rng.Intn(2) == 0 {
			// A host like the query: verdicts turn on a few buckets and
			// one degree tail.
			g = qfp.fp
			g.ELab[rng.Intn(fpEdgeBuckets)] = 0
			g.VLab[rng.Intn(fpVertexBuckets)] = 0
			k := rng.Intn(fpDegTail)
			g.DegTail[k] = uint16(rng.Intn(int(g.DegTail[k]) + 1))
		}
		for _, sigma := range []float64{0, 0.5, 1, 2, 4} {
			want := admissibleFull(&qfp, &g, sigma)
			if got := qfp.Admissible(&g, sigma); got != want {
				t.Fatalf("trial %d sigma=%v floors %v: sparse test says %v, full scan %v\nquery %+v\nhost  %+v", trial, sigma, fl, got, want, qfp.fp, g)
			}
			if want {
				verdicts[1]++
			} else {
				verdicts[0]++
			}
		}
	}
	if verdicts[0] < 1000 || verdicts[1] < 1000 {
		t.Fatalf("verdicts %v (rejected, admitted): the random fingerprints do not exercise both", verdicts)
	}
}

// TestNewQueryFPAllocs: the memo's catch-up builds a query fingerprint on
// every hit, so building one must not allocate.
func TestNewQueryFPAllocs(t *testing.T) {
	_, db := buildSmall(t, distance.EdgeMutation{}, 67, 8)
	if avg := testing.AllocsPerRun(100, func() { NewQueryFP(db[0], 1, 1) }); avg > 0 {
		t.Fatalf("NewQueryFP allocates %.1f times, want 0", avg)
	}
}
