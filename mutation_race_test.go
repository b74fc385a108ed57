package pis_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pis"
	"pis/gen"
)

// Concurrency property: mutations racing Search/SearchKNN/SearchBatch
// must never produce a torn result. Every response has to reflect SOME
// consistent database state — checked here through invariants that hold
// in every reachable state (answers ascending and unique, distances
// aligned and within σ, ids within the ever-assigned range) — and once
// the mutators stop, a final differential check pins the exact end
// state. Run under -race in CI, where the snapshot discipline (copy-on-
// write tombstones, append-only delta) is what keeps this clean.

func checkConsistentResult(t *testing.T, r pis.Result, sigma float64, maxID int32) {
	t.Helper()
	if len(r.Answers) != len(r.Distances) {
		t.Errorf("answers/distances misaligned: %d vs %d", len(r.Answers), len(r.Distances))
		return
	}
	for i, id := range r.Answers {
		if id < 0 || id >= maxID {
			t.Errorf("answer id %d outside ever-assigned range [0,%d)", id, maxID)
		}
		if i > 0 && r.Answers[i-1] >= id {
			t.Errorf("answers not strictly ascending at %d: %v", i, r.Answers)
		}
		if r.Distances[i] < 0 || r.Distances[i] > sigma {
			t.Errorf("distance %g outside [0,%g]", r.Distances[i], sigma)
		}
	}
}

func runMutationRace(t *testing.T, db mutableDB, initial []*pis.Graph) {
	const (
		mutators  = 2
		searchers = 3
		steps     = 60
	)
	pool := gen.Molecules(40, gen.Config{Seed: 9000})
	var assigned atomic.Int32
	assigned.Store(int32(len(initial)))
	// Static bound on every id that can ever exist in this run; results
	// may momentarily be ahead of the atomic counter, never of this.
	maxEverID := int32(len(initial) + mutators*steps)

	// Mutation log: each mutator records what it did so the final
	// differential check can reconstruct the surviving set.
	type op struct {
		insert *pis.Graph
		id     int32
		ok     bool
	}
	logs := make([][]op, mutators)

	var muWG, seWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < mutators; w++ {
		muWG.Add(1)
		go func(w int) {
			defer muWG.Done()
			rng := rand.New(rand.NewSource(int64(7000 + w)))
			for i := 0; i < steps; i++ {
				switch r := rng.Intn(10); {
				case r < 5:
					g := pool[rng.Intn(len(pool))]
					id, err := db.Insert(g)
					if err != nil {
						t.Errorf("Insert: %v", err)
						return
					}
					for {
						cur := assigned.Load()
						if id < cur || assigned.CompareAndSwap(cur, id+1) {
							break
						}
					}
					logs[w] = append(logs[w], op{insert: g, id: id})
				case r < 8:
					id := rng.Int31n(assigned.Load())
					ok, err := db.Delete(id)
					if err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
					logs[w] = append(logs[w], op{id: id, ok: ok})
				default:
					if err := db.Compact(); err != nil {
						t.Errorf("Compact: %v", err)
						return
					}
				}
			}
		}(w)
	}
	queries := gen.Queries(initial, 4, 6, 41)
	for w := 0; w < searchers; w++ {
		seWG.Add(1)
		go func(w int) {
			defer seWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(i+w)%len(queries)]
				switch i % 3 {
				case 0:
					checkConsistentResult(t, db.Search(q, 2), 2, maxEverID)
				case 1:
					ns := db.SearchKNN(q, 3, 6)
					for j := range ns {
						if j > 0 && (ns[j-1].Distance > ns[j].Distance ||
							(ns[j-1].Distance == ns[j].Distance && ns[j-1].ID >= ns[j].ID)) {
							t.Errorf("kNN order violated: %v", ns)
						}
					}
				case 2:
					for _, r := range db.SearchBatch(queries[:2], 1, 2) {
						checkConsistentResult(t, r, 1, maxEverID)
					}
				}
			}
		}(w)
	}

	// Searchers overlap the whole mutation window; stop them once the
	// mutators are done.
	muWG.Wait()
	close(stop)
	seWG.Wait()

	// Reconstruct the surviving set: replay is not order-exact across
	// goroutines, but inserts and successful deletes commute here because
	// ids are unique and never reused — an insert introduces id i, a
	// successful delete of i removes it, and no other op touches i.
	live := make(map[int32]*pis.Graph)
	for i, g := range initial {
		live[int32(i)] = g
	}
	for _, lg := range logs {
		for _, o := range lg {
			if o.insert != nil {
				live[o.id] = o.insert
			}
		}
	}
	for _, lg := range logs {
		for _, o := range lg {
			if o.insert == nil && o.ok {
				delete(live, o.id)
			}
		}
	}
	ids := db.LiveIDs()
	if len(ids) != len(live) {
		t.Fatalf("final live count %d, want %d", len(ids), len(live))
	}
	for _, id := range ids {
		if g, ok := live[id]; !ok || db.Graph(id) != g {
			t.Fatalf("final state diverged at id %d", id)
		}
	}
	m := &mutationModel{live: live}
	checkEquivalence(t, rand.New(rand.NewSource(99)), db, m, pis.Options{MaxFragmentEdges: 4})
}

func TestConcurrentMutationsUnsharded(t *testing.T) {
	initial := gen.Molecules(30, gen.Config{Seed: 61})
	db, err := pis.New(initial, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	runMutationRace(t, db, initial)
}

func TestConcurrentMutationsSharded(t *testing.T) {
	for _, nShards := range []int{1, 3} {
		initial := gen.Molecules(30, gen.Config{Seed: 62})
		db, err := pis.NewSharded(initial, nShards, pis.Options{MaxFragmentEdges: 4})
		if err != nil {
			t.Fatal(err)
		}
		runMutationRace(t, db, initial)
	}
}

// runMemoRace hammers a warmed query pool from several goroutines while
// one writer inserts, deletes and compacts. Every read of a pooled query
// is a result-memo lookup racing the writer and the other readers'
// stores, so under -race this is the memo's concurrency test; and since
// whatever entries the race left behind answer the final reads, comparing
// those with a fresh database pins that no reader stored an entry that
// does not describe the snapshot it was computed over.
func runMemoRace(t *testing.T, db mutableDB, initial []*pis.Graph) {
	const (
		readers = 4
		steps   = 80
	)
	opts := pis.Options{MaxFragmentEdges: 4}
	pool := gen.Molecules(40, gen.Config{Seed: 9100})
	queries := gen.Queries(initial, 6, 6, 43)
	maxEverID := int32(len(initial) + steps)
	for _, q := range queries { // warm
		db.Search(q, 2)
		db.SearchKNN(q, 3, 6)
	}

	m := &mutationModel{live: make(map[int32]*pis.Graph)}
	for i, g := range initial {
		m.live[int32(i)] = g
		m.ever = append(m.ever, int32(i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[i%len(queries)]
				switch i % 3 {
				case 0:
					checkConsistentResult(t, db.Search(q, 2), 2, maxEverID)
				case 1:
					r, err := db.SearchContext(context.Background(), q, 1)
					if err != nil {
						t.Errorf("SearchContext: %v", err)
					}
					checkConsistentResult(t, r, 1, maxEverID)
				case 2:
					ns := db.SearchKNN(q, 3, 6)
					for j := 1; j < len(ns); j++ {
						if ns[j-1].Distance > ns[j].Distance || (ns[j-1].Distance == ns[j].Distance && ns[j-1].ID >= ns[j].ID) {
							t.Errorf("kNN order violated: %v", ns)
						}
					}
				}
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(7100))
	for i := 0; i < steps; i++ {
		applyRandomOp(t, rng, db, m, pool)
	}
	close(stop)
	wg.Wait()

	live := db.LiveIDs()
	rank := make(map[int32]int32, len(live))
	survivors := make([]*pis.Graph, len(live))
	for i, id := range live {
		rank[id], survivors[i] = int32(i), m.live[id]
	}
	fresh, err := pis.New(survivors, opts)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		for _, sigma := range []float64{1, 2} {
			compareAnswers(t, fmt.Sprintf("after the race, q%d σ=%g", qi, sigma), db.Search(q, sigma), fresh.Search(q, sigma), rank)
		}
		got, want := db.SearchKNN(q, 3, 6), fresh.SearchKNN(q, 3, 6)
		if len(got) != len(want) {
			t.Fatalf("after the race, kNN q%d: %v, want %v", qi, got, want)
		}
		for i := range got {
			if rank[got[i].ID] != want[i].ID || got[i].Distance != want[i].Distance {
				t.Fatalf("after the race, kNN q%d: %v, want %v (fresh ids)", qi, got, want)
			}
		}
	}
}

func TestConcurrentMemoUnsharded(t *testing.T) {
	initial := gen.Molecules(30, gen.Config{Seed: 63})
	db, err := pis.New(initial, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	runMemoRace(t, db, initial)
}

func TestConcurrentMemoSharded(t *testing.T) {
	for _, nShards := range []int{1, 3} {
		initial := gen.Molecules(30, gen.Config{Seed: 64})
		db, err := pis.NewSharded(initial, nShards, pis.Options{MaxFragmentEdges: 4})
		if err != nil {
			t.Fatal(err)
		}
		runMemoRace(t, db, initial)
	}
}
