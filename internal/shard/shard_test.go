package shard

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"pis/internal/chem"
	"pis/internal/core"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
	"pis/internal/segment"
)

func testConfig() segment.Config {
	return segment.Config{Index: index.Options{Metric: distance.EdgeMutation{}}}
}

// testFeatures mines the one feature set every shard of db shares.
func testFeatures(tb testing.TB, db []*graph.Graph) []mining.Feature {
	tb.Helper()
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 4, MinEdges: 2, MinSupportFraction: 0.05, SampleSize: 300})
	if err != nil {
		tb.Fatal(err)
	}
	return feats
}

// buildEnv returns a small molecule database, its shards — one segment
// per Split range under the one feature set, as pis.NewSharded builds
// them — and an unsharded reference searcher.
func buildEnv(t *testing.T, n, nShards int) ([]*graph.Graph, []Searcher, *core.Searcher) {
	t.Helper()
	db := chem.Generate(n, chem.Config{Seed: 7})
	cfg, feats := testConfig(), testFeatures(t, db)
	var shards []Searcher
	for _, r := range Split(len(db), nShards) {
		seg, err := segment.New(db[r.Start:r.End], int32(r.Start), feats, cfg)
		if err != nil {
			t.Fatalf("segment.New(%v): %v", r, err)
		}
		shards = append(shards, seg)
	}
	idx, err := index.Build(db, feats, cfg.Index)
	if err != nil {
		t.Fatal(err)
	}
	return db, shards, core.NewSearcher(db, idx, core.Options{})
}

// search and searchKNN run the two fan-outs under a background context,
// where the only possible error is a verification panic.
func search(shards []Searcher, q *graph.Graph, sigma float64) core.Result {
	r, err := FanOutSearch(context.Background(), shards, q, sigma)
	core.Rethrow(err)
	return r
}

func searchKNN(shards []Searcher, q *graph.Graph, k int, maxSigma float64) []core.Neighbor {
	ns, err := FanOutKNN(context.Background(), shards, q, k, maxSigma)
	core.Rethrow(err)
	return ns
}

func TestSplit(t *testing.T) {
	cases := []struct {
		n, k int
		want []Range
	}{
		{5, 1, []Range{{0, 5}}},
		{5, 2, []Range{{0, 2}, {2, 5}}},
		{6, 3, []Range{{0, 2}, {2, 4}, {4, 6}}},
		{3, 7, []Range{{0, 1}, {1, 2}, {2, 3}}}, // k clamped to n
		{5, 0, []Range{{0, 5}}},                 // k clamped to 1
	}
	for _, c := range cases {
		got := Split(c.n, c.k)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Split(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	// Generic properties: contiguous cover, non-empty, sizes within 1.
	for n := 1; n <= 40; n++ {
		for k := 1; k <= 10; k++ {
			rs := Split(n, k)
			prev := 0
			min, max := n, 0
			for _, r := range rs {
				if r.Start != prev || r.End <= r.Start {
					t.Fatalf("Split(%d,%d): bad range %v in %v", n, k, r, rs)
				}
				prev = r.End
				if sz := r.End - r.Start; sz < min {
					min = sz
				} else if sz > max {
					max = sz
				}
			}
			if prev != n {
				t.Fatalf("Split(%d,%d) does not cover: %v", n, k, rs)
			}
			if max > 0 && max-min > 1 {
				t.Fatalf("Split(%d,%d) unbalanced: %v", n, k, rs)
			}
		}
	}
}

func TestSearchMatchesUnsharded(t *testing.T) {
	db, sh, ref := buildEnv(t, 60, 4)
	queries := chem.SampleQueries(db, 6, 8, 3)
	for qi, q := range queries {
		for _, sigma := range []float64{0, 1, 2} {
			want := ref.Search(q, sigma)
			got := search(sh, q, sigma)
			if !reflect.DeepEqual(got.Answers, want.Answers) {
				t.Errorf("query %d σ=%g: answers %v, want %v", qi, sigma, got.Answers, want.Answers)
			}
			if !reflect.DeepEqual(got.Distances, want.Distances) {
				t.Errorf("query %d σ=%g: distances %v, want %v", qi, sigma, got.Distances, want.Distances)
			}
		}
	}
}

func TestSearchStatsAggregate(t *testing.T) {
	db, sh, _ := buildEnv(t, 40, 4)
	q := chem.SampleQueries(db, 1, 8, 5)[0]
	r := search(sh, q, 1)
	// The verification tiers must account for every candidate across all
	// shards: each one is either answered from the verify cache or
	// branch-and-bound verified (the prescreen ran in the filter).
	if got := r.Stats.Verified + r.Stats.VerifyCacheHits; got != len(r.Candidates) {
		t.Errorf("Verified+VerifyCacheHits %d != len(Candidates) %d", got, len(r.Candidates))
	}
	if st := r.Stats; st.StructCandidates-st.PrescreenRejects < st.RangeCandidates || st.RangeCandidates < st.DistCandidates {
		t.Errorf("aggregated funnel not monotone: %+v", st)
	}
	// Fan-out over 4 shards visits the fragment index 4 times.
	if r.Stats.QueryFragments == 0 {
		t.Errorf("aggregated QueryFragments should be > 0")
	}
}

func TestSearchKNNMatchesUnsharded(t *testing.T) {
	db, sh, ref := buildEnv(t, 60, 4)
	queries := chem.SampleQueries(db, 6, 8, 11)
	for qi, q := range queries {
		for _, k := range []int{1, 3, 10} {
			want := ref.SearchKNN(q, k, 8)
			got := searchKNN(sh, q, k, 8)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("query %d k=%d: got %v, want %v", qi, k, got, want)
			}
		}
	}
}

// TestSearchBatchAligns: the batch loop lives in package pis; what it
// needs of this one is that concurrent fan-outs over the same shards
// each return their own query's answer.
func TestSearchBatchAligns(t *testing.T) {
	db, sh, _ := buildEnv(t, 40, 3)
	queries := chem.SampleQueries(db, 8, 8, 13)
	want := make([]core.Result, len(queries))
	for i, q := range queries {
		want[i] = search(sh, q, 1)
	}
	for _, workers := range []int{1, 2, len(queries)} {
		got := make([]core.Result, len(queries))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(queries); i += workers {
					got[i] = search(sh, queries[i], 1)
				}
			}(w)
		}
		wg.Wait()
		for i := range queries {
			if !reflect.DeepEqual(got[i].Answers, want[i].Answers) {
				t.Errorf("workers=%d query %d: %v, want %v", workers, i, got[i].Answers, want[i].Answers)
			}
		}
	}
}

// TestMoreShardsThanGraphs: Split clamps 9 shards over 5 graphs to 5,
// and a fan-out over single-graph segments still answers.
func TestMoreShardsThanGraphs(t *testing.T) {
	db, sh, ref := buildEnv(t, 5, 9)
	if len(sh) != 5 {
		t.Fatalf("%d shards, want clamp to 5", len(sh))
	}
	q := chem.SampleQueries(db, 1, 6, 1)[0]
	r := search(sh, q, 1)
	if want := ref.Search(q, 1); r.Answers == nil || !reflect.DeepEqual(r.Answers, want.Answers) {
		t.Fatalf("answers %v, want %v", r.Answers, want.Answers)
	}
}
