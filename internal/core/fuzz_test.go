package core

import (
	"testing"

	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
)

// fuzzFeed deals deterministic decisions from fuzz input, wrapping
// around so every byte string decodes to a workload.
type fuzzFeed struct {
	data []byte
	i    int
}

func (f *fuzzFeed) next() int {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[f.i%len(f.data)]
	f.i++
	return int(b)
}

// fuzzMolecule decodes one small connected graph: a spanning tree plus up
// to n extra edges, labels skewed like the AIDS data.
func fuzzMolecule(f *fuzzFeed) *graph.Graph {
	n := f.next()%6 + 3 // 3..8 vertices
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VLabel(f.next() % 3))
	}
	lab := func() graph.ELabel {
		r := f.next() % 10
		switch {
		case r < 7:
			return 0
		case r < 9:
			return 1
		default:
			return 2
		}
	}
	seen := map[[2]int32]bool{}
	addEdge := func(u, v int32) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int32{u, v}] {
			return
		}
		seen[[2]int32{u, v}] = true
		b.AddEdge(u, v, lab())
	}
	for v := 1; v < n; v++ {
		addEdge(int32(f.next()%v), int32(v))
	}
	for i := 0; i < f.next()%n; i++ {
		addEdge(int32(f.next()%n), int32(f.next()%n))
	}
	return b.MustBuild()
}

// FuzzSearchSigma checks two pipeline properties on arbitrary small
// workloads: Search answers exactly the naive oracle (the filter may
// only drop non-answers) and answer sets grow monotonically in σ. A
// violation in either would mean the partition lower bound or a range
// query pruned a true answer.
func FuzzSearchSigma(f *testing.F) {
	f.Add([]byte{4, 1, 0, 2, 3, 1, 1, 0, 5, 2, 9, 4, 1, 7})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xfe, 0x31, 0x07, 0x52, 0x12, 0x88, 0x19, 0x03, 0x44, 0x61})
	f.Fuzz(func(t *testing.T, data []byte) {
		feed := &fuzzFeed{data: data}
		nDB := feed.next()%8 + 3 // 3..10 graphs
		db := make([]*graph.Graph, nDB)
		for i := range db {
			db[i] = fuzzMolecule(feed)
		}
		q := fuzzMolecule(feed)

		feats, err := mining.Mine(db, mining.Options{MaxEdges: 3, MinSupportFraction: 0.05})
		if err != nil || len(feats) == 0 {
			return // degenerate workload: nothing to index
		}
		idx, err := index.Build(db, feats, index.Options{Metric: distance.EdgeMutation{}})
		if err != nil {
			t.Fatalf("index build: %v", err)
		}
		s := NewSearcher(db, idx, Options{})

		var prev []int32
		for _, sigma := range []float64{0, 1, 2.5} {
			naive := s.SearchNaive(q, sigma)
			got := s.Search(q, sigma)
			if !equalIDs(naive.Answers, got.Answers) {
				t.Fatalf("σ=%g: Search %v != Naive %v", sigma, got.Answers, naive.Answers)
			}
			if !equalF64(naive.Distances, got.Distances) {
				t.Fatalf("σ=%g: distances diverged", sigma)
			}
			if !subset(got.Answers, got.Candidates) {
				t.Fatalf("σ=%g: answers escaped the candidate set", sigma)
			}
			if !subset(prev, got.Answers) {
				t.Fatalf("answers not monotone in σ: %v then %v", prev, got.Answers)
			}
			prev = got.Answers
		}
	})
}
