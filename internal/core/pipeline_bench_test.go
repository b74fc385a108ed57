// Micro-benchmarks of the candidate pipeline: how much time and how many
// allocations one Search spends per stage. CI runs them with
// -benchtime=1x as a smoke test. Run locally with:
//
//	go test -run '^$' -bench BenchmarkSearchPipeline -benchmem ./internal/core
package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"pis/internal/chem"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/iso"
)

// benchFixture is a database sized so that filtering, not fixture setup,
// dominates: big enough for non-trivial postings, small enough to iterate.
type benchFixture struct {
	fixture
	queries []*graph.Graph
}

func newBenchFixture(b *testing.B) benchFixture {
	b.Helper()
	fx := newFixture(b, 42, 300)
	rng := rand.New(rand.NewSource(43))
	qs := make([]*graph.Graph, 32)
	for i := range qs {
		qs[i] = sampleQuery(rng, fx.db, 5+rng.Intn(3))
	}
	return benchFixture{fixture: fx, queries: qs}
}

// BenchmarkSearchPipeline measures the PIS hot path end to end and per
// stage, with allocation counts. The PIS/Filter sub-benchmark is the
// filtering stage alone (CountCandidates); PIS/Full includes parallel
// verification; TopoPrune and Naive are the paper's baselines.
func BenchmarkSearchPipeline(b *testing.B) {
	fx := newBenchFixture(b)

	b.Run("PIS/Filter", func(b *testing.B) {
		s := NewSearcher(fx.db, fx.idx, Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.CountCandidates(fx.queries[i%len(fx.queries)], 2)
		}
	})
	b.Run("PIS/Full", func(b *testing.B) {
		s := NewSearcher(fx.db, fx.idx, Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Search(fx.queries[i%len(fx.queries)], 2)
		}
	})
	b.Run("TopoPrune", func(b *testing.B) {
		s := NewSearcher(fx.db, fx.idx, Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.SearchTopoPrune(fx.queries[i%len(fx.queries)], 2)
		}
	})
	b.Run("Naive", func(b *testing.B) {
		s := NewSearcher(fx.db, fx.idx, Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.SearchNaive(fx.queries[i%len(fx.queries)], 2)
		}
	})
	b.Run("KNN", func(b *testing.B) {
		s := NewSearcher(fx.db, fx.idx, Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.SearchKNN(fx.queries[i%len(fx.queries)], 5, 4)
		}
	})
}

// BenchmarkStructuralCandidates is the structural intersection alone: the
// class sets of 64 Q24 queries, enumerated beforehand, against 5,000
// molecules, on a heap and on a mapped index, with no tombstones and with
// one graph in six deleted. 0 allocs/op once the scratch has grown.
func BenchmarkStructuralCandidates(b *testing.B) {
	fx := newMolFixture(b, 5000)
	qs := chem.SampleQueries(fx.db, 64, 24, 24)
	rng := rand.New(rand.NewSource(24))
	var sixth *index.Tombstones
	for id := range fx.db {
		if rng.Intn(6) == 0 {
			sixth = sixth.WithSet(int32(id))
		}
	}
	for _, side := range []struct {
		name string
		idx  *index.Index
	}{{"heap", fx.heap}, {"mapped", fx.mapped}} {
		s := NewSearcher(fx.db, side.idx, Options{})
		sc := s.getScratch()
		sets := make([][]*index.Class, len(qs))
		for i, q := range qs {
			var st Stats
			s.queryClasses(q, &st, sc)
			sets[i] = slices.Clone(sc.classes)
		}
		for _, tc := range []struct {
			name  string
			tombs *index.Tombstones
		}{{"live", nil}, {"tombstones", sixth}} {
			b.Run(side.name+"/"+tc.name, func(b *testing.B) {
				b.ReportAllocs()
				cands := 0
				for i := 0; i < b.N; i++ {
					sc.classes = sets[i%len(sets)]
					cands += len(s.structuralCandidates(sc, tc.tombs))
				}
				b.ReportMetric(float64(cands)/float64(b.N), "candidates/op")
			})
		}
	}
}

// BenchmarkPlannerPrices refits the planner's prices by least squares on
// timed work over 3,000 molecules, in the two shapes they were picked on
// (Q16 at σ = 2, Q24 at σ = 1). A planning searcher filters each query,
// learning as a search does; then every range query it ran is timed again
// against its probe units and returned ids (priceProbe, priceID), and
// every candidate it left is timed against its branch-and-bound nodes
// plus a fixed cost (priceNode, priceCand).
func BenchmarkPlannerPrices(b *testing.B) {
	fx := newMolFixture(b, 3000)
	s := NewSearcher(fx.db, fx.heap, Options{})
	shapes := []struct {
		qs    []*graph.Graph
		sigma float64
	}{{chem.SampleQueries(fx.db, 48, 16, 5), 2}, {chem.SampleQueries(fx.db, 48, 24, 6), 1}}
	sc := s.getScratch()
	var pl index.PostingList
	var v iso.Verifier
	var rq, vf priceFit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sh := range shapes {
			for _, q := range sh.qs {
				var st Stats
				cands, _ := s.filter(q, sh.sigma, &st, sc, View{}, nil, true)
				for _, fi := range sc.infos {
					start := time.Now()
					s.idx.RangeQueryInto(fi.qf, sh.sigma, &pl, &sc.rbuf, nil)
					rq.add(fi.qf.Class.ProbeCost(), float64(pl.Len()), time.Since(start))
				}
				v.Reset(q, s.metric)
				nodes0 := v.Nodes()
				for _, id := range cands {
					n, start := v.Nodes(), time.Now()
					v.Distance(fx.db[id], sh.sigma)
					vf.add(float64(v.Nodes()-n), 1, time.Since(start))
				}
				st.Verified, st.VerifyNodes = len(cands), int(v.Nodes()-nodes0)
				s.observeCosts(sc.infos, &st)
			}
		}
	}
	probe, id := rq.solve()
	node, cand := vf.solve()
	b.ReportMetric(probe, "ns/probe-unit")
	b.ReportMetric(id, "ns/id")
	b.ReportMetric(node, "ns/node")
	b.ReportMetric(cand, "ns/candidate")
}

// priceFit accumulates the normal equations of y = a·x0 + b·x1.
type priceFit struct{ s00, s01, s11, s0y, s1y float64 }

func (f *priceFit) add(x0, x1 float64, y time.Duration) {
	f.s00 += x0 * x0
	f.s01 += x0 * x1
	f.s11 += x1 * x1
	f.s0y += x0 * float64(y)
	f.s1y += x1 * float64(y)
}

func (f *priceFit) solve() (a, b float64) {
	det := f.s00*f.s11 - f.s01*f.s01
	return (f.s0y*f.s11 - f.s1y*f.s01) / det, (f.s00*f.s1y - f.s01*f.s0y) / det
}
