package pis_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pis"
	"pis/gen"
)

// Planner differential property tests at the public API: a database
// searched with the cost-based planner (the default) must answer Search
// and SearchKNN exactly like one running exhaustive fragment expansion
// (PlannerOff), across shardings, class vocabularies, key metrics and
// live mutation interleavings. Both databases see the identical
// mutation sequence, so global ids agree and results compare entry for
// entry.

func plannerOptionPairs() []pis.Options {
	base := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
	small := base
	small.MaxFragmentEdges = 3 // fewer, smaller classes to rank and skip
	full := base
	full.Metric = pis.FullMutation // keys carry vertex labels too
	return []pis.Options{base, small, full}
}

type plannerPair struct {
	planned, exhaustive mutableDB
}

func comparePlanned(t *testing.T, label string, pair plannerPair, queries []*pis.Graph) {
	t.Helper()
	for qi, q := range queries {
		for _, sigma := range []float64{0, 1, 2.5} {
			got := pair.planned.Search(q, sigma)
			want := pair.exhaustive.Search(q, sigma)
			if len(got.Answers) != len(want.Answers) {
				t.Fatalf("%s q%d σ=%g: planner found %d answers, exhaustive %d",
					label, qi, sigma, len(got.Answers), len(want.Answers))
			}
			for i := range want.Answers {
				if got.Answers[i] != want.Answers[i] || got.Distances[i] != want.Distances[i] {
					t.Fatalf("%s q%d σ=%g: answer %d differs: (%d, %g) vs (%d, %g)", label, qi, sigma,
						i, got.Answers[i], got.Distances[i], want.Answers[i], want.Distances[i])
				}
			}
		}
		gotN := pair.planned.SearchKNN(q, 3, 5)
		wantN := pair.exhaustive.SearchKNN(q, 3, 5)
		if len(gotN) != len(wantN) {
			t.Fatalf("%s q%d: planner kNN %d neighbors, exhaustive %d", label, qi, len(gotN), len(wantN))
		}
		for i := range wantN {
			if gotN[i] != wantN[i] {
				t.Fatalf("%s q%d: kNN neighbor %d differs: %+v vs %+v", label, qi, i, gotN[i], wantN[i])
			}
		}
	}
}

// TestPlannerDifferentialMutations interleaves identical
// Insert/Delete/Compact sequences into a planner-enabled and an
// exhaustive database (unsharded and sharded) and checks equivalence
// after every few operations.
func TestPlannerDifferentialMutations(t *testing.T) {
	for _, nShards := range []int{0, 3} { // 0 = unsharded
		for oi, opts := range plannerOptionPairs() {
			name := fmt.Sprintf("shards=%d/opts=%d", nShards, oi)
			t.Run(name, func(t *testing.T) {
				exOpts := opts
				exOpts.PlannerOff = true
				initial := gen.Molecules(28, gen.Config{Seed: 600 + int64(oi)})
				var pair plannerPair
				var err error
				if nShards == 0 {
					if pair.planned, err = pis.New(initial, opts); err != nil {
						t.Fatal(err)
					}
					if pair.exhaustive, err = pis.New(initial, exOpts); err != nil {
						t.Fatal(err)
					}
				} else {
					if pair.planned, err = pis.NewSharded(initial, nShards, opts); err != nil {
						t.Fatal(err)
					}
					if pair.exhaustive, err = pis.NewSharded(initial, nShards, exOpts); err != nil {
						t.Fatal(err)
					}
				}
				rng := rand.New(rand.NewSource(700 + int64(oi)))
				pool := gen.Molecules(12, gen.Config{Seed: 800 + int64(oi)})
				live := append([]int32(nil), pair.planned.LiveIDs()...)
				nextDelete := 0
				for step := 0; step < 24; step++ {
					switch rng.Intn(4) {
					case 0: // insert the same graph into both
						g := pool[rng.Intn(len(pool))]
						idP, err := pair.planned.Insert(g)
						if err != nil {
							t.Fatal(err)
						}
						idE, err := pair.exhaustive.Insert(g)
						if err != nil {
							t.Fatal(err)
						}
						if idP != idE {
							t.Fatalf("step %d: insert ids diverged: %d vs %d", step, idP, idE)
						}
						live = append(live, idP)
					case 1: // delete the same live graph from both
						if len(live) <= nextDelete+6 {
							continue
						}
						id := live[nextDelete]
						nextDelete++
						okP, err := pair.planned.Delete(id)
						if err != nil {
							t.Fatal(err)
						}
						okE, err := pair.exhaustive.Delete(id)
						if err != nil {
							t.Fatal(err)
						}
						if okP != okE {
							t.Fatalf("step %d: Delete(%d) diverged: %v vs %v", step, id, okP, okE)
						}
					case 2: // compact both
						if err := pair.planned.Compact(); err != nil {
							t.Fatal(err)
						}
						if err := pair.exhaustive.Compact(); err != nil {
							t.Fatal(err)
						}
					}
					if step%6 == 5 {
						queries := gen.Queries(initial, 2, 5, rng.Int63())
						comparePlanned(t, name, pair, queries)
					}
				}
				queries := gen.Queries(initial, 4, 6, rng.Int63())
				comparePlanned(t, name, pair, queries)
			})
		}
	}
}

// TestKNNTeachesPlanner: a segment's threshold and kNN reads share one
// planner, so what kNN queries alone observe shows in PlannerState.
func TestKNNTeachesPlanner(t *testing.T) {
	graphs := gen.Molecules(600, gen.Config{Seed: 1})
	db, err := pis.New(graphs, pis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, q := range gen.Queries(graphs, 20, 16, 2) {
		db.SearchKNN(q, 10, 4)
	}
	if len(db.PlannerState()) == 0 {
		t.Fatal("20 kNN queries left the planner state empty")
	}
}
