package core

import (
	"time"

	"pis/internal/graph"
)

var mQueriesTopo = queriesTotal.With("topoprune")

// SearchTopoPrune filters by structure only: a graph survives when it
// contains every indexed fragment structure of the query, then gets
// verified (the baseline of §2 and §7, which the differential tests and
// BenchmarkSearchPipeline compare the pipeline against).
func (s *Searcher) SearchTopoPrune(q *graph.Graph, sigma float64) Result {
	var r Result
	start := time.Now()
	sc := s.getScratch()
	sc.classes = s.idx.QueryClasses(sc.classes[:0], q, &sc.frags)
	cands := s.structuralCandidates(sc, nil)
	r.Stats.StructCandidates = len(cands)
	r.Stats.RangeCandidates = len(cands) // no distance pruning in this method
	r.Stats.DistCandidates = len(cands)
	r.Candidates = append([]int32(nil), cands...)
	r.Stats.FilterTime = time.Since(start)
	err := s.verify(q, sigma, 0, &r, nil, sc, View{}, nil)
	s.putScratch(sc)
	Rethrow(err)
	r.Stats.record(mQueriesTopo)
	return r
}
