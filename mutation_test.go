package pis_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pis"
	"pis/gen"
)

// Differential property tests for live mutations: after ANY interleaving
// of Insert/Delete/Compact, a mutated database must answer
// Search/SearchKNN/SearchBatch exactly like a freshly built pis.New over
// the surviving graphs. Ids are compared through the rank mapping — the
// mutated database keeps stable global ids, the fresh database numbers
// the same survivors 0..n-1 in ascending id order — which is a bijection,
// so answer sets, distances, and kNN order must agree entry for entry.

// mutableDB is the mutation + query surface of *pis.Database.
type mutableDB interface {
	Insert(g *pis.Graph) (int32, error)
	Delete(id int32) (bool, error)
	Compact() error
	Len() int
	Graph(id int32) *pis.Graph
	LiveIDs() []int32
	Search(q *pis.Graph, sigma float64) pis.Result
	SearchContext(ctx context.Context, q *pis.Graph, sigma float64) (pis.Result, error)
	SearchKNN(q *pis.Graph, k int, maxSigma float64) []pis.Neighbor
	SearchBatch(queries []*pis.Graph, sigma float64, workers int) []pis.Result
	Stats() pis.Stats
}

// mutationModel mirrors the expected database contents by stable id.
type mutationModel struct {
	live map[int32]*pis.Graph
	ever []int32 // every id ever assigned, for delete targeting
}

// applyRandomOp performs one random mutation on db and the model in
// lockstep, asserting the mutation's observable outcome matches.
func applyRandomOp(t *testing.T, rng *rand.Rand, db mutableDB, m *mutationModel, pool []*pis.Graph) {
	t.Helper()
	switch op := rng.Intn(10); {
	case op < 4: // insert
		g := pool[rng.Intn(len(pool))]
		id, err := db.Insert(g)
		if err != nil {
			t.Fatalf("Insert: auto-compaction failed: %v", err)
		}
		if _, dup := m.live[id]; dup {
			t.Fatalf("Insert reused live id %d", id)
		}
		m.live[id] = g
		m.ever = append(m.ever, id)
	case op < 7: // delete a random ever-assigned id (live or not)
		if len(m.live) <= 5 {
			return // keep the database searchable
		}
		id := m.ever[rng.Intn(len(m.ever))]
		_, wasLive := m.live[id]
		got, err := db.Delete(id)
		if err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if got != wasLive {
			t.Fatalf("Delete(%d) = %v, model says live=%v", id, got, wasLive)
		}
		delete(m.live, id)
	case op < 8: // delete an id that was never assigned
		if ok, err := db.Delete(int32(len(m.ever) + 100000)); ok || err != nil {
			t.Fatalf("Delete of never-assigned id: %v, %v", ok, err)
		}
	default: // explicit compaction
		if err := db.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
	}
}

// checkEquivalence asserts db answers exactly like a fresh pis.New over
// the surviving graphs, across Search, SearchKNN, and SearchBatch.
func checkEquivalence(t *testing.T, rng *rand.Rand, db mutableDB, m *mutationModel, opts pis.Options) {
	t.Helper()
	live := db.LiveIDs()
	if len(live) != len(m.live) {
		t.Fatalf("LiveIDs reports %d graphs, model has %d", len(live), len(m.live))
	}
	rank := make(map[int32]int32, len(live))
	survivors := make([]*pis.Graph, len(live))
	for i, id := range live {
		g, ok := m.live[id]
		if !ok {
			t.Fatalf("LiveIDs includes %d, which the model deleted", id)
		}
		// A database recovered from disk holds decoded copies, so fall
		// back to structural equality when pointer identity fails.
		if got := db.Graph(id); got != g && !graphsEqual(t, got, g) {
			t.Fatalf("Graph(%d) returned the wrong graph", id)
		}
		rank[id] = int32(i)
		survivors[i] = g
	}
	if db.Len() != len(live) {
		t.Fatalf("Len() = %d, want %d live graphs", db.Len(), len(live))
	}

	fresh, err := pis.New(survivors, opts)
	if err != nil {
		t.Fatalf("fresh build over %d survivors: %v", len(survivors), err)
	}
	queries := gen.Queries(survivors, 3, 6, rng.Int63())

	for qi, q := range queries {
		for _, sigma := range []float64{0, 2} {
			got := db.Search(q, sigma)
			want := fresh.Search(q, sigma)
			compareAnswers(t, fmt.Sprintf("Search q%d σ=%g", qi, sigma), got, want, rank)
		}
		gotN := db.SearchKNN(q, 4, 6)
		wantN := fresh.SearchKNN(q, 4, 6)
		if len(gotN) != len(wantN) {
			t.Fatalf("SearchKNN q%d: %d neighbors, want %d", qi, len(gotN), len(wantN))
		}
		for i := range gotN {
			if rank[gotN[i].ID] != wantN[i].ID || gotN[i].Distance != wantN[i].Distance {
				t.Fatalf("SearchKNN q%d neighbor %d: (%d→%d, %g), want (%d, %g)",
					qi, i, gotN[i].ID, rank[gotN[i].ID], gotN[i].Distance, wantN[i].ID, wantN[i].Distance)
			}
		}
	}

	gotB := db.SearchBatch(queries, 1.5, 2)
	wantB := fresh.SearchBatch(queries, 1.5, 2)
	for i := range queries {
		compareAnswers(t, fmt.Sprintf("SearchBatch q%d", i), gotB[i], wantB[i], rank)
	}
}

// graphsEqual compares two graphs through the transaction codec, which
// renders every observable field.
func graphsEqual(t *testing.T, a, b *pis.Graph) bool {
	t.Helper()
	if a == nil || b == nil {
		return a == b
	}
	var ab, bb bytes.Buffer
	if err := pis.WriteDatabase(&ab, []*pis.Graph{a}); err != nil {
		t.Fatal(err)
	}
	if err := pis.WriteDatabase(&bb, []*pis.Graph{b}); err != nil {
		t.Fatal(err)
	}
	return ab.String() == bb.String()
}

// compareAnswers asserts got (stable ids) equals want (fresh dense ids)
// under the rank bijection, including exact distances.
func compareAnswers(t *testing.T, ctx string, got, want pis.Result, rank map[int32]int32) {
	t.Helper()
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("%s: %d answers %v, want %d %v", ctx, len(got.Answers), got.Answers, len(want.Answers), want.Answers)
	}
	for i, id := range got.Answers {
		r, ok := rank[id]
		if !ok {
			t.Fatalf("%s: answer id %d is not live", ctx, id)
		}
		if r != want.Answers[i] {
			t.Fatalf("%s: answer %d is id %d (rank %d), want rank %d", ctx, i, id, r, want.Answers[i])
		}
		if got.Distances[i] != want.Distances[i] {
			t.Fatalf("%s: distance %d = %g, want %g", ctx, i, got.Distances[i], want.Distances[i])
		}
	}
}

// runMutationDifferential drives one randomized Insert/Delete/Compact
// interleaving against db, checking full-equivalence snapshots along the
// way.
func runMutationDifferential(t *testing.T, seed int64, db mutableDB, initial []*pis.Graph, opts pis.Options) {
	rng := rand.New(rand.NewSource(seed))
	pool := gen.Molecules(30, gen.Config{Seed: seed + 1000})
	m := &mutationModel{live: make(map[int32]*pis.Graph)}
	for i, g := range initial {
		m.live[int32(i)] = g
		m.ever = append(m.ever, int32(i))
	}
	for step := 0; step < 30; step++ {
		applyRandomOp(t, rng, db, m, pool)
		if step%10 == 9 {
			checkEquivalence(t, rng, db, m, opts)
		}
	}
	// Final state, after one last explicit compaction: the folded index
	// must still answer identically.
	if err := db.Compact(); err != nil {
		t.Fatalf("final Compact: %v", err)
	}
	if st := db.Stats().Index; st.Delta != 0 || st.Tombstones != 0 {
		t.Fatalf("after Compact: delta=%d tombstones=%d, want 0/0", st.Delta, st.Tombstones)
	}
	checkEquivalence(t, rng, db, m, opts)
}

// TestMutationDifferentialUnsharded runs the interleaving property on the
// single-segment database, both with automatic compaction and with the
// pure delta+tombstone path (compaction disabled).
func TestMutationDifferentialUnsharded(t *testing.T) {
	for _, cf := range []float64{0, -1} { // 0 → default 0.25, -1 → disabled
		for seed := int64(0); seed < 2; seed++ {
			opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: cf}
			initial := gen.Molecules(25, gen.Config{Seed: 50 + seed})
			db, err := pis.New(initial, opts)
			if err != nil {
				t.Fatal(err)
			}
			runMutationDifferential(t, 300+seed, db, initial, opts)
		}
	}
}

// TestMutationDifferentialSharded runs the same property on sharded
// databases, where inserts are routed to the smallest shard and
// compaction runs per shard.
func TestMutationDifferentialSharded(t *testing.T) {
	for _, nShards := range []int{2, 3} {
		for _, cf := range []float64{0, -1} {
			opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: cf}
			initial := gen.Molecules(30, gen.Config{Seed: 77})
			db, err := pis.NewSharded(initial, nShards, opts)
			if err != nil {
				t.Fatal(err)
			}
			runMutationDifferential(t, 400+int64(nShards), db, initial, opts)
		}
	}
}

// TestInsertRoutedToSmallestShard: inserts land in the shard with the
// fewest live graphs, keeping shards balanced as the database grows.
func TestInsertRoutedToSmallestShard(t *testing.T) {
	initial := gen.Molecules(30, gen.Config{Seed: 91})
	db, err := pis.NewSharded(initial, 3, pis.Options{MaxFragmentEdges: 4, CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Empty out shard coverage asymmetrically: delete 8 of the first
	// shard's graphs (ids 0..9 live in shard 0).
	for id := int32(0); id < 8; id++ {
		if ok, err := db.Delete(id); !ok || err != nil {
			t.Fatalf("Delete failed: %v, %v", ok, err)
		}
	}
	pool := gen.Molecules(6, gen.Config{Seed: 92})
	var newIDs []int32
	for _, g := range pool {
		id, err := db.Insert(g)
		if err != nil {
			t.Fatal(err)
		}
		newIDs = append(newIDs, id)
	}
	// All six land in the depleted shard 0 (2 live + 6 = 8, still the
	// smallest), observable through shard-0 deletes succeeding and the
	// graphs being searchable.
	for i, id := range newIDs {
		if db.Graph(id) != pool[i] {
			t.Fatalf("inserted graph %d not retrievable", id)
		}
	}
	if got := db.Len(); got != 30-8+6 {
		t.Fatalf("Len = %d, want 28", got)
	}
}

// TestAutoCompactionTriggers: with a small CompactFraction, inserts fold
// the delta into the index without an explicit Compact call.
func TestAutoCompactionTriggers(t *testing.T) {
	initial := gen.Molecules(20, gen.Config{Seed: 95})
	db, err := pis.New(initial, pis.Options{MaxFragmentEdges: 4, CompactFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	pool := gen.Molecules(10, gen.Config{Seed: 96})
	sawDelta := false
	for _, g := range pool {
		if _, err := db.Insert(g); err != nil {
			t.Fatal(err)
		}
		st := db.Stats().Index
		if st.Delta > 0 {
			sawDelta = true
		}
		// 20 graphs * 0.2 = 4: the delta may never exceed the trigger.
		if st.Delta > 5 {
			t.Fatalf("delta %d never compacted", st.Delta)
		}
	}
	if !sawDelta {
		t.Fatal("inserts never hit the delta segment")
	}
	if db.Len() != 30 {
		t.Fatalf("Len = %d, want 30", db.Len())
	}
}

// TestDenseInsertSearch: a graph too dense for the structural annotation
// (K12 has millions of short cycles; the pass gives up within its budget)
// can be inserted and found without stalling: as a host it passes every
// invariant test, so a ring and a clique query both reach it.
func TestDenseInsertSearch(t *testing.T) {
	db, err := pis.New(gen.Molecules(40, gen.Config{Seed: 97}), pis.Options{MaxFragmentEdges: 4, CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	clique := func(n int32) *pis.Graph {
		b := pis.NewGraphBuilder(int(n), int(n*(n-1)/2))
		for i := int32(0); i < n; i++ {
			b.AddVertex(0)
		}
		for u := int32(0); u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(u, v, 0)
			}
		}
		return b.MustBuild()
	}
	id, err := db.Insert(clique(12))
	if err != nil {
		t.Fatal(err)
	}
	ring := pis.NewGraphBuilder(6, 6)
	for i := 0; i < 6; i++ {
		ring.AddVertex(0)
	}
	for i := int32(0); i < 6; i++ {
		ring.AddEdge(i, (i+1)%6, 0)
	}
	for name, q := range map[string]*pis.Graph{"ring": ring.MustBuild(), "K4": clique(4)} {
		got, want := db.Search(q, 1), db.SearchNaive(q, 1)
		if !slices.Equal(got.Answers, want.Answers) || !slices.Equal(got.Distances, want.Distances) {
			t.Errorf("%s: answers %v %v, naive %v %v", name, got.Answers, got.Distances, want.Answers, want.Distances)
		}
		if i := slices.Index(got.Answers, id); i < 0 || got.Distances[i] != 0 {
			t.Errorf("%s: K12 (id %d) must answer at distance 0, got %v %v", name, id, got.Answers, got.Distances)
		}
		if nn := db.SearchKNN(q, 1, 1); len(nn) != 1 || nn[0].Distance != 0 {
			t.Errorf("%s: nearest neighbor %v, want one at distance 0", name, nn)
		}
	}
}
