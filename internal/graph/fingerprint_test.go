package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestConstructorsFillFP: every way a Graph comes into being leaves it
// carrying its own fingerprint, so the prescreen never meets a graph
// without one. Relabel's labels differ from its source's, so a copy of
// the source's fingerprint fails as a skipped fill does.
func TestConstructorsFillFP(t *testing.T) {
	host := cycle(8, 3, 5)
	var text bytes.Buffer
	if err := WriteDB(&text, []*Graph{host}); err != nil {
		t.Fatal(err)
	}
	read, err := ReadDB(&text)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := DecodeBinary(host.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	extracted, _, _ := Fragment{Host: host, Edges: []int32{0, 1, 2}}.Extract()
	vl, el := make([]VLabel, host.N()), make([]ELabel, host.M())
	for i := range vl {
		vl[i] = VLabel(i)
	}
	for i := range el {
		el[i] = ELabel(i)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"Builder.Build", host},
		{"Clone", host.Clone()},
		{"Relabel", host.Relabel(vl, el)},
		{"Skeleton", host.Skeleton()},
		{"Fragment.Extract", extracted},
		{"DecodeBinary", decoded},
		{"ReadDB", read[0]},
	} {
		if want := computeFP(tc.g); *tc.g.FP() != want || want == (FP{}) {
			t.Errorf("%s: fingerprint %+v, a fresh fill gives %+v", tc.name, *tc.g.FP(), want)
		}
	}
}

// admissibleFull is Admissible as it read every bucket and every degree
// tail: the reference the sparse loops are held to.
func admissibleFull(qfp *QueryFP, g *FP, sigma float64) bool {
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
func randomFP(rng *rand.Rand) FP {
	count := func() uint8 {
		switch rng.Intn(8) {
		case 0, 1:
			return 0
		case 3:
			return ^uint8(0)
		}
		return uint8(rng.Intn(6))
	}
	var fp FP
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
			g.DegTail[k] = uint8(rng.Intn(int(g.DegTail[k]) + 1))
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
	q := randomBinGraph(rand.New(rand.NewSource(67)), false)
	if avg := testing.AllocsPerRun(100, func() { NewQueryFP(q, 1, 1) }); avg > 0 {
		t.Fatalf("NewQueryFP allocates %.1f times, want 0", avg)
	}
}
