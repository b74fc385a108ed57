package pis_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pis"
	"pis/gen"
	"pis/internal/obs"
)

// Differential tests for the segments' result memo: a fixed query set is
// kept warm across randomized Insert/Delete/Compact interleavings and
// re-run through every read path after every single mutation, so any
// entry that outlived what it describes — an answer for a tombstoned
// graph, a missing answer for a fresh insert, a kNN list with a deleted
// neighbour's slot left open, an id a compaction was thought to renumber
// — shows up as a divergence from a freshly built database, which has no
// memo at all. The non-vacuity checks at the end prove the memo was
// answering, answering one read from another's entry, catching up,
// falling back and recomputing while it happened.

// memoWitness collects what the differential must have seen to mean
// anything, across all of one test's interleavings.
type memoWitness struct{ hits, covered, refreshed, fallbacks, knnRecomputes int }

func memoFallbacks() int64 {
	return obs.Default().CounterVec("pis_result_memo_lookups_total", "", "outcome").Value("fallback")
}

func memoCovered() int64 {
	return obs.Default().CounterVec("pis_result_memo_lookups_total", "", "outcome").Value("covered")
}

// runMemoDifferential drives one interleaving, re-running the same warmed
// queries after every mutation.
func runMemoDifferential(t *testing.T, seed int64, db mutableDB, initial []*pis.Graph, opts pis.Options, w *memoWitness) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool := gen.Molecules(20, gen.Config{Seed: seed + 2000})
	// Four queries cut from the initial graphs, two cut from graphs that
	// are only ever inserted, and a K4, which no molecule contains: its
	// entry cost no verification, so every live insert outnumbers that and
	// sends it down the fallback.
	queries := append(gen.Queries(initial, 4, 7, seed+3000), gen.Queries(pool, 2, 7, seed+4000)...)
	k4 := pis.NewGraphBuilder(4, 6)
	for v := int32(0); v < 4; v++ {
		k4.AddVertex(0)
		for u := int32(0); u < v; u++ {
			k4.AddEdge(u, v, 0)
		}
	}
	queries = append(queries, k4.MustBuild())
	m := &mutationModel{live: make(map[int32]*pis.Graph)}
	for i, g := range initial {
		m.live[int32(i)] = g
		m.ever = append(m.ever, int32(i))
	}
	ks := []int{1, 3, 8}
	lastKNN := make(map[[2]int][]pis.Neighbor)

	check := func(step int) {
		live := db.LiveIDs()
		rank := make(map[int32]int32, len(live))
		survivors := make([]*pis.Graph, len(live))
		for i, id := range live {
			g, ok := m.live[id]
			if !ok {
				t.Fatalf("step %d: LiveIDs includes deleted id %d", step, id)
			}
			rank[id] = int32(i)
			survivors[i] = g
		}
		fresh, err := pis.New(survivors, opts)
		if err != nil {
			t.Fatalf("step %d: fresh build: %v", step, err)
		}
		for qi, q := range queries {
			for _, sigma := range []float64{1, 2} {
				// The σ = 1, 2 and k = 1, 3, 8 reads of one query answer
				// each other (covered).
				f0, c0 := memoFallbacks(), memoCovered()
				got := db.Search(q, sigma)
				w.covered += int(memoCovered() - c0)
				want := fresh.Search(q, sigma)
				compareAnswers(t, fmt.Sprintf("step %d Search q%d σ=%g", step, qi, sigma), got, want, rank)
				w.hits += got.Stats.MemoHits
				w.refreshed += got.Stats.Refreshed
				w.fallbacks += int(memoFallbacks() - f0)
				got, err := db.SearchContext(context.Background(), q, sigma)
				if err != nil {
					t.Fatalf("step %d SearchContext q%d σ=%g: %v", step, qi, sigma, err)
				}
				compareAnswers(t, fmt.Sprintf("step %d SearchContext q%d σ=%g", step, qi, sigma), got, want, rank)
			}
			for _, k := range ks {
				// A recompute is a fallback on a list one of whose
				// members the last mutation deleted.
				lost := false
				for _, n := range lastKNN[[2]int{qi, k}] {
					if _, ok := m.live[n.ID]; !ok {
						lost = true
					}
				}
				f0, c0 := memoFallbacks(), memoCovered()
				gotN := db.SearchKNN(q, k, 6)
				w.covered += int(memoCovered() - c0)
				wantN := fresh.SearchKNN(q, k, 6)
				if len(gotN) != len(wantN) {
					t.Fatalf("step %d SearchKNN q%d k=%d: %d neighbors %v, want %d %v", step, qi, k, len(gotN), gotN, len(wantN), wantN)
				}
				for i := range gotN {
					if rank[gotN[i].ID] != wantN[i].ID || gotN[i].Distance != wantN[i].Distance {
						t.Fatalf("step %d SearchKNN q%d k=%d neighbor %d: (%d→%d, %g), want (%d, %g)",
							step, qi, k, i, gotN[i].ID, rank[gotN[i].ID], gotN[i].Distance, wantN[i].ID, wantN[i].Distance)
					}
				}
				if lost && memoFallbacks() > f0 {
					w.knnRecomputes++
				}
				lastKNN[[2]int{qi, k}] = gotN
			}
		}
		gotB := db.SearchBatch(queries, 1, 2)
		wantB := fresh.SearchBatch(queries, 1, 2)
		for i := range queries {
			compareAnswers(t, fmt.Sprintf("step %d SearchBatch q%d", step, i), gotB[i], wantB[i], rank)
		}
	}

	// Warm the memo, then interleave mutations with full re-checks of
	// the same queries after every single operation — the window where a
	// stale entry could answer is exactly one mutation wide.
	check(-1)
	for step := 0; step < 16; step++ {
		applyRandomOp(t, rng, db, m, pool)
		check(step)
	}
}

func (w *memoWitness) requireNonVacuous(t *testing.T) {
	t.Helper()
	if w.hits == 0 || w.covered == 0 || w.refreshed == 0 || w.fallbacks == 0 || w.knnRecomputes == 0 {
		t.Fatalf("differential test is vacuous for part of the memo: %+v", *w)
	}
}

func TestMemoMutationDifferentialUnsharded(t *testing.T) {
	var w memoWitness
	// 0 → default auto-compaction, -1 → pure delta+tombstones, 0.1 → a
	// compaction every few inserts.
	for _, cf := range []float64{0, -1, 0.1} {
		for seed := int64(0); seed < 2; seed++ {
			opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: cf}
			initial := gen.Molecules(25, gen.Config{Seed: 500 + seed})
			db, err := pis.New(initial, opts)
			if err != nil {
				t.Fatal(err)
			}
			runMemoDifferential(t, 600+seed, db, initial, opts, &w)
		}
	}
	w.requireNonVacuous(t)
}

func TestMemoMutationDifferentialSharded(t *testing.T) {
	var w memoWitness
	for _, nShards := range []int{1, 2, 3} {
		opts := pis.Options{MaxFragmentEdges: 4}
		initial := gen.Molecules(30, gen.Config{Seed: 700})
		db, err := pis.NewSharded(initial, nShards, opts)
		if err != nil {
			t.Fatal(err)
		}
		runMemoDifferential(t, 800+int64(nShards), db, initial, opts, &w)
	}
	w.requireNonVacuous(t)
}
