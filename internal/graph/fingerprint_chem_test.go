package graph_test

import (
	"testing"

	"pis/internal/chem"
	"pis/internal/graph"
)

// fp16 is the fingerprint with the 16-bit counters it had before they
// narrowed to 8: the same buckets and degree tails, which no generated
// molecule saturates.
type fp16 struct {
	nv, ne int
	deg    [8]uint16
	elab   [32]uint16
	vlab   [16]uint16
}

func newFP16(g *graph.Graph) fp16 {
	fp := fp16{nv: g.N(), ne: g.M()}
	for v := range g.N() {
		for k := range min(g.Degree(v), len(fp.deg)) {
			fp.deg[k]++
		}
		fp.vlab[graph.LabelBucket(uint32(g.VLabelAt(v)), 16)]++
	}
	for _, e := range g.Edges() {
		fp.elab[graph.LabelBucket(uint32(e.Label), 32)]++
	}
	return fp
}

// admits16 is the full-scan prescreen verdict over 16-bit fingerprints.
func admits16(q, g *fp16, vFloor, eFloor, sigma float64) bool {
	if q.nv > g.nv || q.ne > g.ne {
		return false
	}
	for k := range q.deg {
		if q.deg[k] > g.deg[k] {
			return false
		}
	}
	ed, vd := 0, 0
	for b := range q.elab {
		ed += max(int(q.elab[b])-int(g.elab[b]), 0)
	}
	for b := range q.vlab {
		vd += max(int(q.vlab[b])-int(g.vlab[b]), 0)
	}
	return float64(ed)*eFloor+float64(vd)*vFloor <= sigma
}

// TestAdmissibleMatches16Bit: on the generated corpus at 3,000 and 5,000
// molecules, with Q16 queries at σ = 2 and Q24 queries at σ = 1, the 8-bit
// fingerprint gives every verdict the 16-bit one gave, under the paper's
// metric (edge floor 1) and with a vertex floor too.
func TestAdmissibleMatches16Bit(t *testing.T) {
	for _, n := range []int{3000, 5000} {
		db := chem.Generate(n, chem.Config{Seed: 1})
		ref := make([]fp16, n)
		for i, g := range db {
			ref[i] = newFP16(g)
		}
		for _, set := range []struct {
			edges int
			sigma float64
		}{{16, 2}, {24, 1}} {
			var verdicts [2]int
			for qi, q := range chem.SampleQueries(db, 200, set.edges, int64(n+set.edges)) {
				qref := newFP16(q)
				for _, fl := range [][2]float64{{0, 1}, {1, 1}} {
					qfp := graph.NewQueryFP(q, fl[0], fl[1])
					for i, g := range db {
						want := admits16(&qref, &ref[i], fl[0], fl[1], set.sigma)
						if got := qfp.Admissible(g.FP(), set.sigma); got != want {
							t.Fatalf("n=%d Q%d query %d, graph %d, floors %v: 8-bit verdict %v, 16-bit %v", n, set.edges, qi, i, fl, got, want)
						}
						if want {
							verdicts[1]++
						} else {
							verdicts[0]++
						}
					}
				}
			}
			if verdicts[0] == 0 || verdicts[1] == 0 {
				t.Fatalf("n=%d Q%d: verdicts %v (rejected, admitted) exercise only one side", n, set.edges, verdicts)
			}
		}
	}
}
