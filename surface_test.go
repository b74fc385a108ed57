package pis_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"pis"
	"pis/gen"
	"pis/internal/distance"
	"pis/internal/index"
	"pis/internal/mining"
	"pis/internal/segment"
	"pis/internal/shard"
	"pis/internal/store"
)

// querySurface is every search entry *pis.Database and *pis.ClusterNode
// share.
type querySurface interface {
	NumShards() int
	Search(q *pis.Graph, sigma float64) pis.Result
	SearchContext(ctx context.Context, q *pis.Graph, sigma float64) (pis.Result, error)
	SearchTraced(ctx context.Context, q *pis.Graph, sigma float64) (pis.Result, *pis.TraceSpan, error)
	SearchKNN(q *pis.Graph, k int, maxSigma float64) []pis.Neighbor
	SearchKNNContext(ctx context.Context, q *pis.Graph, k int, maxSigma float64) ([]pis.Neighbor, error)
	SearchBatch(queries []*pis.Graph, sigma float64, workers int) []pis.Result
	SearchBatchContext(ctx context.Context, queries []*pis.Graph, sigma float64, workers int) ([]pis.Result, error)
}

// naiveNeighbors ranks a naive answer by (distance, id) and cuts it at k:
// the reference for SearchKNN.
func naiveNeighbors(r pis.Result, k int) []pis.Neighbor {
	ns := make([]pis.Neighbor, len(r.Answers))
	for i, id := range r.Answers {
		ns[i] = pis.Neighbor{ID: id, Distance: r.Distances[i]}
	}
	sort.SliceStable(ns, func(i, j int) bool { return ns[i].Distance < ns[j].Distance })
	return ns[:min(k, len(ns))]
}

// TestOneQuerySurface: over one corpus, every search entry of a database
// of 1, 2 and 3 shards and of a 3-node cluster — plain, under a context,
// traced, kNN, batch — answers what SearchNaive of the one-shard database
// answers, in answers, distances and neighbour order; and a store in the
// on-disk layout (root MANIFEST + shard-NNN) opens through pis.Open at
// one shard and at three.
func TestOneQuerySurface(t *testing.T) {
	graphs := gen.Molecules(60, gen.Config{Seed: 41})
	opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
	ref, err := pis.New(graphs, opts)
	if err != nil {
		t.Fatal(err)
	}
	queries := gen.Queries(graphs, 4, 8, 42)
	batch := append(append([]*pis.Graph{}, queries...), queries[0]) // one query repeated
	const sigma, radius = 2, 10
	ctx := context.Background()

	backends := map[string]querySurface{
		"cluster": startTestCluster(t, clusterAddrs(t, 3), 3, 2, nil, graphs)[0],
	}
	for _, n := range []int{1, 2, 3} {
		db, err := pis.NewSharded(graphs, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		backends[fmt.Sprint("shards=", n)] = db
	}
	// The layout Create has always written, built below package pis.
	cfg := segment.Config{
		Index:           index.Options{Metric: distance.EdgeMutation{}},
		CompactFraction: -1,
	}
	feats, err := mining.Mine(graphs, mining.Options{MaxEdges: 4, MinEdges: 2, MinSupportFraction: 0.05, SampleSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		dir := filepath.Join(t.TempDir(), "db")
		for i, r := range shard.Split(len(graphs), n) {
			seg, err := segment.New(graphs[r.Start:r.End], int32(r.Start), feats, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.Persist(store.ShardDir(dir, i)); err != nil {
				t.Fatal(err)
			}
			if err := seg.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.WriteRootManifest(dir, n); err != nil {
			t.Fatal(err)
		}
		db, err := pis.Open(dir, opts)
		if err != nil {
			t.Fatalf("Open of a %d-shard store: %v", n, err)
		}
		defer db.Close()
		if db.NumShards() != n {
			t.Fatalf("Open of a %d-shard store: NumShards = %d", n, db.NumShards())
		}
		backends[fmt.Sprint("opened=", n)] = db
	}

	for name, be := range backends {
		same := func(entry string, qi int, got pis.Result, err error) {
			t.Helper()
			want := ref.SearchNaive(batch[qi], sigma)
			if err != nil || !reflect.DeepEqual(got.Answers, want.Answers) || !reflect.DeepEqual(got.Distances, want.Distances) {
				t.Errorf("%s %s query %d: %v %v (err %v), naive says %v %v", name, entry, qi, got.Answers, got.Distances, err, want.Answers, want.Distances)
			}
		}
		for qi, q := range queries {
			same("Search", qi, be.Search(q, sigma), nil)
			r, err := be.SearchContext(ctx, q, sigma)
			same("SearchContext", qi, r, err)
			r, sp, err := be.SearchTraced(ctx, q, sigma)
			same("SearchTraced", qi, r, err)
			wantChildren := 3 // plan, filter, verify
			if n := be.NumShards(); n > 1 {
				wantChildren = n + 1 // one per shard, and the merge
			}
			if sp == nil || sp.Name != "search" || len(sp.Children) != wantChildren {
				t.Errorf("%s query %d: span tree %+v, want a search root with %d children", name, qi, sp, wantChildren)
			}
			for _, k := range []int{1, 3, 8} {
				want := naiveNeighbors(ref.SearchNaive(q, radius), k)
				if got := be.SearchKNN(q, k, radius); !reflect.DeepEqual(got, want) {
					t.Errorf("%s SearchKNN query %d k=%d: %v, want %v", name, qi, k, got, want)
				}
				if got, err := be.SearchKNNContext(ctx, q, k, radius); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s SearchKNNContext query %d k=%d: %v (err %v), want %v", name, qi, k, got, err, want)
				}
			}
		}
		for qi, r := range be.SearchBatch(batch, sigma, 2) {
			same("SearchBatch", qi, r, nil)
		}
		rs, err := be.SearchBatchContext(ctx, batch, sigma, 0)
		for qi, r := range rs {
			same("SearchBatchContext", qi, r, err)
		}
	}
}
