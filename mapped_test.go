package pis_test

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"pis"
	"pis/gen"
)

// Options.MappedIndex is deprecated and read by nothing: a database given
// it keeps its index on the heap like any other. The test below pins the
// two behaviours the mapping used to break: a compaction needed a
// writable os.TempDir(), and a closed database read unmapped memory.

// TestMappedDurableReopen creates a store with MappedIndex, inserts past
// the automatic compaction trigger, deletes and compacts while
// os.TempDir() cannot be written, and reopens the store with MappedIndex.
// Before and after the reopen the database answers like a fresh build
// over the survivors and like SearchNaive; after Close it still answers
// exactly as it did before, and its mutations fail. Every shard keeps
// exactly one idx-*.pisidx3 side file.
func TestMappedDurableReopen(t *testing.T) {
	opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: 0.25, MappedIndex: true}
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"created mapped", 1},
		{"created mapped, sharded", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			t.Setenv("TMPDIR", filepath.Join(dir, "missing"))
			initial := gen.Molecules(25, gen.Config{Seed: 123})
			db, err := pis.CreateSharded(dir, initial, tc.shards, opts)
			if err != nil {
				t.Fatal(err)
			}
			m := &mutationModel{live: make(map[int32]*pis.Graph)}
			for i, g := range initial {
				m.live[int32(i)] = g
			}
			for _, g := range gen.Molecules(10, gen.Config{Seed: 124}) {
				id, err := db.Insert(g)
				if err != nil {
					t.Fatal(err)
				}
				m.live[id] = g
			}
			if d := db.Stats().Index.Delta; d >= 10 {
				t.Fatalf("%d delta graphs after 10 inserts: no automatic compaction ran", d)
			}
			for _, id := range []int32{3, 7, 26} {
				if ok, err := db.Delete(id); !ok || err != nil {
					t.Fatalf("Delete(%d): %v, %v", id, ok, err)
				}
				delete(m.live, id)
			}
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
			queries := gen.Queries(initial, 4, 6, 7)
			checkEquivalence(t, rand.New(rand.NewSource(998)), db, m, opts)
			matchesNaive(t, "compacted", db, queries)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			side, err := filepath.Glob(filepath.Join(dir, "shard-*", "idx-*.pisidx3"))
			if err != nil || len(side) != tc.shards {
				t.Fatalf("store holds %d index side files (%v, err %v), want one per shard (%d)", len(side), side, err, tc.shards)
			}

			// With the planner off every σ range query runs, so every
			// search reads the class entry blocks.
			reopts := opts
			reopts.PlannerOff = true
			re, err := pis.Open(dir, reopts)
			if err != nil {
				t.Fatal(err)
			}
			checkEquivalence(t, rand.New(rand.NewSource(999)), re, m, opts)
			matchesNaive(t, "reopened", re, queries)
			before := make([]pis.Result, len(queries))
			beforeKNN := make([][]pis.Neighbor, len(queries))
			for i, q := range queries {
				before[i], beforeKNN[i] = re.Search(q, 2), re.SearchKNN(q, 3, 6)
			}
			if err := re.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			for i, q := range queries {
				got := re.Search(q, 2)
				if !slices.Equal(got.Answers, before[i].Answers) || !slices.Equal(got.Distances, before[i].Distances) {
					t.Fatalf("query %d after Close: %v %v, before %v %v", i, got.Answers, got.Distances, before[i].Answers, before[i].Distances)
				}
				if got := re.SearchKNN(q, 3, 6); !reflect.DeepEqual(got, beforeKNN[i]) {
					t.Fatalf("query %d kNN after Close: %v, before %v", i, got, beforeKNN[i])
				}
			}
			if _, err := re.Insert(initial[0]); err == nil {
				t.Fatal("Insert after Close succeeded")
			}
		})
	}
}

// matchesNaive requires Search to return SearchNaive's answers and
// distances for every query at σ 0, 1 and 2.
func matchesNaive(t *testing.T, stage string, db *pis.Database, queries []*pis.Graph) {
	t.Helper()
	for qi, q := range queries {
		for _, sigma := range []float64{0, 1, 2} {
			got, want := db.Search(q, sigma), db.SearchNaive(q, sigma)
			if !slices.Equal(got.Answers, want.Answers) || !slices.Equal(got.Distances, want.Distances) {
				t.Fatalf("%s: query %d σ=%g: Search %v %v, SearchNaive %v %v", stage, qi, sigma, got.Answers, got.Distances, want.Answers, want.Distances)
			}
		}
	}
}
