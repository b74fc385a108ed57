package pis_test

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"pis"
	"pis/gen"
	"pis/internal/index"
	"pis/internal/mining"
	"pis/internal/segment"
	"pis/internal/store"
)

// shardedEnv builds one generated database plus the unsharded reference.
func shardedEnv(t *testing.T, n int, seed int64) ([]*pis.Graph, *pis.Database) {
	t.Helper()
	graphs := gen.Molecules(n, gen.Config{Seed: seed})
	ref, err := pis.New(graphs, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	return graphs, ref
}

// TestShardedSearchMatchesSingle is the sharding correctness property: for
// a fixed database, query set, and σ, NewSharded(graphs, n, opts).Search
// returns exactly the answer set of the single-shard database for
// n ∈ {1, 2, 4, 7}.
func TestShardedSearchMatchesSingle(t *testing.T) {
	graphs, ref := shardedEnv(t, 70, 21)
	queries := gen.Queries(graphs, 5, 8, 2)
	sigmas := []float64{0, 1, 2.5}

	for _, nShards := range []int{1, 2, 4, 7} {
		sh, err := pis.NewSharded(graphs, nShards, pis.Options{MaxFragmentEdges: 4})
		if err != nil {
			t.Fatalf("NewSharded(%d): %v", nShards, err)
		}
		if sh.NumShards() != nShards {
			t.Fatalf("NumShards = %d, want %d", sh.NumShards(), nShards)
		}
		for qi, q := range queries {
			for _, sigma := range sigmas {
				want := ref.Search(q, sigma)
				got := sh.Search(q, sigma)
				if !reflect.DeepEqual(got.Answers, want.Answers) {
					t.Errorf("n=%d query %d σ=%g: answers %v, want %v",
						nShards, qi, sigma, got.Answers, want.Answers)
				}
				if !reflect.DeepEqual(got.Distances, want.Distances) {
					t.Errorf("n=%d query %d σ=%g: distances %v, want %v",
						nShards, qi, sigma, got.Distances, want.Distances)
				}
			}
		}
	}
}

// TestShardedKNNMatchesSingle: SearchKNN returns the same neighbors in the
// same order as the unsharded database.
func TestShardedKNNMatchesSingle(t *testing.T) {
	graphs, ref := shardedEnv(t, 70, 33)
	queries := gen.Queries(graphs, 5, 8, 4)

	for _, nShards := range []int{1, 2, 4, 7} {
		sh, err := pis.NewSharded(graphs, nShards, pis.Options{MaxFragmentEdges: 4})
		if err != nil {
			t.Fatalf("NewSharded(%d): %v", nShards, err)
		}
		for qi, q := range queries {
			for _, k := range []int{1, 4, 12} {
				want := ref.SearchKNN(q, k, 10)
				got := sh.SearchKNN(q, k, 10)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("n=%d query %d k=%d: got %v, want %v", nShards, qi, k, got, want)
				}
			}
		}
	}
}

func TestShardedBatchMatchesSingle(t *testing.T) {
	graphs, ref := shardedEnv(t, 50, 5)
	queries := gen.Queries(graphs, 6, 8, 6)
	want := ref.SearchBatch(queries, 1.5, 2)
	for _, nShards := range []int{1, 3} {
		sh, err := pis.NewSharded(graphs, nShards, pis.Options{MaxFragmentEdges: 4})
		if err != nil {
			t.Fatal(err)
		}
		got := sh.SearchBatch(queries, 1.5, 2)
		for i := range queries {
			if !reflect.DeepEqual(got[i].Answers, want[i].Answers) {
				t.Errorf("n=%d query %d: %v, want %v", nShards, i, got[i].Answers, want[i].Answers)
			}
		}
	}
}

func TestNewShardedErrors(t *testing.T) {
	if _, err := pis.NewSharded(nil, 2, pis.Options{}); err == nil {
		t.Error("empty database should fail")
	}
	graphs := gen.Molecules(10, gen.Config{Seed: 1})
	if _, err := pis.NewSharded(graphs, 0, pis.Options{}); err == nil {
		t.Error("nShards=0 should fail")
	}
}

// shapeFamilies returns n graphs in four contiguous runs, one skeleton
// family each: paths, stars, rings, triangle fans. Every later run holds
// skeletons the first lacks, so mining any contiguous slice alone finds
// features that mining the whole input does not.
func shapeFamilies(n int, seed int64) []*pis.Graph {
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*pis.Graph, n)
	for i := range graphs {
		k := 5 + rng.Intn(3)
		b := pis.NewGraphBuilder(k, 2*k)
		for v := 0; v < k; v++ {
			b.AddVertex(pis.VLabel(rng.Intn(3)))
		}
		edge := func(u, v int32) { b.AddEdge(u, v, pis.ELabel(rng.Intn(2))) }
		for v := int32(1); v < int32(k); v++ {
			switch 4 * i / n {
			case 0:
				edge(v-1, v)
			case 1:
				edge(0, v)
			case 2:
				edge(v-1, v)
				if v == int32(k-1) {
					edge(v, 0)
				}
			default:
				edge(0, v)
				if v > 1 {
					edge(v-1, v)
				}
			}
		}
		graphs[i] = b.MustBuild()
	}
	return graphs
}

// wholeInputClassKeys returns the keys of one selection over the whole
// input's prefix at MaxFragmentEdges 4, in order: the class list every
// shard must carry.
func wholeInputClassKeys(t *testing.T, graphs []*pis.Graph) []string {
	t.Helper()
	feats, err := mining.Select(graphs, 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(feats))
	for i, f := range feats {
		keys[i] = f.Key
	}
	return keys
}

// storeClassKeys returns the class keys, in order, of the index in the
// shard store at dir.
func storeClassKeys(t *testing.T, dir string) []string {
	t.Helper()
	st, snap, _, err := store.OpenFS(dir, pis.EdgeMutation, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var keys []string
	for _, c := range snap.Index.Classes() {
		keys = append(keys, c.Key)
	}
	return keys
}

// TestShardsShareOneFeatureSet: a database of any shard count indexes
// every shard under the one feature set mined over the whole input's
// prefix, and counts that set once in Stats.
func TestShardsShareOneFeatureSet(t *testing.T) {
	graphs := shapeFamilies(80, 3)
	want := wholeInputClassKeys(t, graphs)
	for _, nShards := range []int{1, 2, 4} {
		dir := filepath.Join(t.TempDir(), "db")
		db, err := pis.CreateSharded(dir, graphs, nShards, pis.Options{MaxFragmentEdges: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := db.Stats().Index.Features; got != len(want) {
			t.Errorf("%d shards: Stats().Features = %d, want the %d features of the set", nShards, got, len(want))
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nShards; i++ {
			if got := storeClassKeys(t, store.ShardDir(dir, i)); !slices.Equal(got, want) {
				t.Errorf("%d shards: shard %d holds %d classes, not the list of %d mined over the whole input", nShards, i, len(got), len(want))
			}
		}
	}
}

// TestShardedStatsSumShards: Stats and Durability of a 3-shard database
// with a live overlay are the sums of its shards' own counters, read off
// each shard's store with nothing of package pis in between, except that
// Features counts the shared feature set once; and a fan-out's funnel
// accounts for every candidate of every shard.
func TestShardedStatsSumShards(t *testing.T) {
	graphs := gen.Molecules(40, gen.Config{Seed: 61})
	opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
	dir := filepath.Join(t.TempDir(), "db")
	db, err := pis.CreateSharded(dir, graphs, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := db.Search(gen.Queries(graphs, 1, 8, 63)[0], 1)
	if st := r.Stats; st.Verified+st.VerifyCacheHits != len(r.Candidates) ||
		st.StructCandidates-st.PrescreenRejects < st.RangeCandidates || st.RangeCandidates < st.DistCandidates {
		t.Errorf("merged funnel does not account for the candidates (%d): %+v", len(r.Candidates), st)
	}
	for _, g := range gen.Molecules(2, gen.Config{Seed: 62}) {
		if _, err := db.Insert(g); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := db.Delete(5); !ok || err != nil {
		t.Fatalf("Delete: %v, %v", ok, err)
	}
	st := db.Stats()
	got, gotDur, gotBytes := st.Index, st.Durability, db.GraphBytes()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var want pis.IndexStats
	var wal int64
	wantBytes := 0
	cfg := segment.Config{Index: index.Options{Metric: pis.EdgeMutation}, CompactFraction: -1}
	for i := 0; i < 3; i++ {
		seg, err := segment.OpenDurable(store.ShardDir(dir, i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := seg.Stats()
		if i > 0 && st.Index.Classes != want.Features {
			t.Fatalf("shard %d has %d classes, shard 0 %d: not one shared set", i, st.Index.Classes, want.Features)
		}
		want.Features = st.Index.Classes
		want.Fragments += st.Index.Fragments
		want.Sequences += st.Index.Sequences
		want.Delta += st.Delta
		want.Tombstones += st.Tombstones
		want.StoreBytes += st.Memory.StoreBytes
		want.BitmapBytes += st.Memory.BitmapBytes
		want.FingerprintBytes += st.Memory.FingerprintBytes
		wantBytes += seg.GraphBytes()
		wal += int64(st.Store.Recovery.ReplayedRecords)
		seg.Close()
	}
	// The graphs' heap counts the invariants the search cached, which the
	// reopened shards have not computed: it can only be larger.
	if gotBytes < wantBytes {
		t.Errorf("graph bytes %d, below the reopened shards' %d", gotBytes, wantBytes)
	}
	if got != want || got.Delta != 2 || got.Tombstones != 1 {
		t.Errorf("Stats() = %+v, want the shards' sum %+v (2 delta, 1 tombstone)", got, want)
	}
	if !gotDur.Durable || gotDur.WALRecords != 3 || wal != 3 || gotDur.SnapshotSeq != 1 {
		t.Errorf("Stats().Durability = %+v, want 3 WAL records (the shards replayed %d) at snapshot 1", gotDur, wal)
	}
}

// TestShardedInsertRouting: each insert lands in the shard with the
// fewest live graphs at that moment, the lowest-numbered on a tie, read
// back from the shards' own stores. Shard 0 (10 graphs) loses 8, so the
// next eight inserts go there (2 → 10 live), the ninth too (three equal
// shards), and the tenth to shard 1 (10 against shard 0's 11).
func TestShardedInsertRouting(t *testing.T) {
	opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
	dir := filepath.Join(t.TempDir(), "db")
	db, err := pis.CreateSharded(dir, gen.Molecules(30, gen.Config{Seed: 91}), 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := int32(0); id < 8; id++ {
		if ok, err := db.Delete(id); !ok || err != nil {
			t.Fatalf("Delete(%d): %v, %v", id, ok, err)
		}
	}
	want := map[int32]int{} // id → shard it must land in
	for i, g := range gen.Molecules(10, gen.Config{Seed: 92}) {
		id, err := db.Insert(g)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = 0
		if i == 9 {
			want[id] = 1
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := segment.Config{Index: index.Options{Metric: pis.EdgeMutation}, CompactFraction: -1}
	for i := 0; i < 3; i++ {
		seg, err := segment.OpenDurable(store.ShardDir(dir, i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for id, sh := range want {
			if held := seg.Graph(id) != nil; held != (sh == i) {
				t.Errorf("shard %d holds insert %d: %v, want it in shard %d", i, id, held, sh)
			}
		}
		seg.Close()
	}
}
