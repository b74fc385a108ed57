package pis_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"pis"
	"pis/internal/store"
)

// noFeatureQueries are the three rings, two more ring variants the tests
// insert, and a 4-edge chain of the rings' bond.
func noFeatureQueries(t *testing.T) (rings, extra, queries []*pis.Graph) {
	rings = threeRings(t)
	extra = []*pis.Graph{
		ring6(t, [6]pis.ELabel{2, 1, 2, 1, 2, 1}),
		ring6(t, [6]pis.ELabel{1, 1, 1, 1, 1, 2}),
	}
	b := pis.NewGraphBuilder(5, 4)
	for i := 0; i < 5; i++ {
		b.AddVertex(0)
	}
	for i := 0; i < 4; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	chain, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	queries = append(append(slices.Clone(rings), extra...), chain)
	return rings, extra, queries
}

// searcher is the query surface with the index statistics, which
// *pis.Database and *pis.ClusterNode both have.
type searcher interface {
	querySurface
	Stats() pis.Stats
}

// checkNoFeatures asserts that s indexes no class and that every Search
// and SearchKNN over queries equals oracle's verification of every graph.
func checkNoFeatures(t *testing.T, stage string, s searcher, oracle *pis.Database, queries []*pis.Graph) {
	t.Helper()
	if f := s.Stats().Index.Features; f != 0 {
		t.Fatalf("%s: %d features, want none", stage, f)
	}
	for qi, q := range queries {
		for _, sigma := range []float64{0, 1, 2, 3} {
			got, want := s.Search(q, sigma), oracle.SearchNaive(q, sigma)
			if !slices.Equal(got.Answers, want.Answers) || !slices.Equal(got.Distances, want.Distances) {
				t.Fatalf("%s: query %d σ=%g: answers %v/%v, want %v/%v", stage, qi, sigma, got.Answers, got.Distances, want.Answers, want.Distances)
			}
		}
		if got, want := s.SearchKNN(q, 3, 6), naiveNeighbors(oracle.SearchNaive(q, 6), 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: query %d kNN: %v, want %v", stage, qi, got, want)
		}
	}
}

// TestNoFeatureDatabase: graphs that share every skeleton select no
// feature, and such a database answers exactly by prescreen and
// verification alone, on one shard and two, through insert, delete,
// compaction, checkpoint and reopen.
func TestNoFeatureDatabase(t *testing.T) {
	rings, extra, queries := noFeatureQueries(t)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
			dir := filepath.Join(t.TempDir(), "db")
			db, err := pis.CreateSharded(dir, rings, shards, opts)
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage string, live int) {
				t.Helper()
				if db.Len() != live {
					t.Fatalf("%s: %d live graphs, want %d", stage, db.Len(), live)
				}
				checkNoFeatures(t, stage, db, db, queries)
			}
			check("created", 3)
			for _, g := range extra {
				if _, err := db.Insert(g); err != nil {
					t.Fatal(err)
				}
			}
			check("inserted", 5)
			if ok, err := db.Delete(1); err != nil || !ok {
				t.Fatalf("delete 1: %v, %v", ok, err)
			}
			check("deleted", 4)
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
			check("compacted", 4)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			check("checkpointed", 4)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = pis.Open(dir, opts); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			check("reopened", 4)
		})
	}
}

// TestClusterNoFeatureBootstrap: a cluster over the same rings bootstraps
// featureless shards on its first node, and the second node's full
// transfer from it ships and installs their zero-class images; the
// cluster answers like the single-process oracle before and after a
// write.
func TestClusterNoFeatureBootstrap(t *testing.T) {
	rings, extra, queries := noFeatureQueries(t)
	ref, err := pis.New(rings, clusterTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	addrs := clusterAddrs(t, 2)
	dirs := []string{t.TempDir(), t.TempDir()}
	nodes := startTestCluster(t, addrs, 2, 2, dirs, rings)
	for i, cn := range nodes {
		checkNoFeatures(t, fmt.Sprintf("node %d", i), cn, ref, queries)
	}
	if _, err := ref.Insert(extra[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].Insert(extra[0]); err != nil {
		t.Fatal(err)
	}
	checkNoFeatures(t, "node 1 after a write", nodes[1], ref, queries)
	for _, cn := range nodes {
		if err := cn.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for sh := 0; sh < 2; sh++ {
		if keys := storeClassKeys(t, store.ShardDir(dirs[1], sh)); len(keys) != 0 {
			t.Errorf("node 1 holds shard %d with %d classes, want none", sh, len(keys))
		}
	}
}
