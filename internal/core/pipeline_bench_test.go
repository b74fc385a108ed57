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

	"pis/internal/chem"
	"pis/internal/graph"
	"pis/internal/index"
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
