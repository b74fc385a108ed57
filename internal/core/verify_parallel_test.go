package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Parallel verification must be invisible in the results: any
// VerifyWorkers setting (and any GOMAXPROCS) returns the same Answers,
// Distances and kNN neighbors. Run with -race to catch sharing bugs in
// the worker pool and the shared shrinking kNN bound.

func TestParallelVerifyDeterministic(t *testing.T) {
	fx := newFixture(t, 31, 80)
	rng := rand.New(rand.NewSource(32))
	workerCounts := []int{1, 2, 3, 8, 16}
	for trial := 0; trial < 10; trial++ {
		q := sampleQuery(rng, fx.db, 3+rng.Intn(5))
		sigma := float64(rng.Intn(4))
		var base Result
		for i, w := range workerCounts {
			s := NewSearcher(fx.db, fx.idx, Options{VerifyWorkers: w})
			r := s.Search(q, sigma)
			if i == 0 {
				base = r
				continue
			}
			if !reflect.DeepEqual(base.Answers, r.Answers) {
				t.Fatalf("trial %d σ=%v: answers differ between 1 and %d workers: %v vs %v",
					trial, sigma, w, base.Answers, r.Answers)
			}
			if !reflect.DeepEqual(base.Distances, r.Distances) {
				t.Fatalf("trial %d σ=%v: distances differ between 1 and %d workers", trial, sigma, w)
			}
			if !reflect.DeepEqual(base.Candidates, r.Candidates) {
				t.Fatalf("trial %d σ=%v: candidates differ between 1 and %d workers", trial, sigma, w)
			}
		}
	}
}

func TestParallelKNNDeterministic(t *testing.T) {
	fx := newFixture(t, 33, 80)
	rng := rand.New(rand.NewSource(34))
	workerCounts := []int{1, 2, 3, 8, 16}
	for trial := 0; trial < 8; trial++ {
		q := sampleQuery(rng, fx.db, 3+rng.Intn(5))
		k := 1 + rng.Intn(10)
		var base []Neighbor
		for i, w := range workerCounts {
			s := NewSearcher(fx.db, fx.idx, Options{VerifyWorkers: w})
			ns := s.SearchKNN(q, k, 6)
			if i == 0 {
				base = ns
				continue
			}
			if !reflect.DeepEqual(base, ns) {
				t.Fatalf("trial %d k=%d: neighbors differ between 1 and %d workers:\n%v\nvs\n%v",
					trial, k, w, base, ns)
			}
		}
	}
}

// TestParallelKNNMatchesThresholdOracle: the shrinking verification
// budget may cut branch-and-bound work but never change which neighbors
// come back, at any radius, k or worker count, over a mutation snapshot
// with tombstones and a live delta.
func TestParallelKNNMatchesThresholdOracle(t *testing.T) {
	fx := newFixture(t, 35, 60)
	rng := rand.New(rand.NewSource(36))
	var view View
	for i := range fx.db {
		if rng.Intn(10) == 0 {
			view.Tombs = view.Tombs.WithSet(int32(i))
		}
	}
	for i := 0; i < 12; i++ {
		view.Delta = append(view.Delta, randomMolecule(rng, 7+rng.Intn(6)))
	}
	view.Tombs = view.Tombs.WithSet(int32(len(fx.db) + 3)) // a deleted insert
	oracle := NewSearcher(fx.db, fx.idx, Options{})
	searchers := map[int]*Searcher{}
	for _, w := range []int{1, 4} {
		searchers[w] = NewSearcher(fx.db, fx.idx, Options{VerifyWorkers: w})
	}
	for trial := 0; trial < 8; trial++ {
		q := sampleQuery(rng, fx.db, 3+rng.Intn(5))
		for _, maxSigma := range []float64{0, 1, 2, 5} {
			// Oracle: verify every live graph within maxSigma, order by
			// (distance, id).
			full := oracle.SearchNaiveView(q, maxSigma, view)
			var all []Neighbor
			for i, id := range full.Answers {
				all = append(all, Neighbor{ID: id, Distance: full.Distances[i]})
			}
			sort.Slice(all, func(i, j int) bool {
				if all[i].Distance != all[j].Distance {
					return all[i].Distance < all[j].Distance
				}
				return all[i].ID < all[j].ID
			})
			for _, k := range []int{1, 3, 10, 1000} {
				want := all[:min(len(all), k)]
				for w, s := range searchers {
					ns := searchKNNView(s, q, k, maxSigma, view)
					if len(ns) != len(want) {
						t.Fatalf("trial %d σ=%v k=%d workers=%d: got %d neighbors, oracle has %d", trial, maxSigma, k, w, len(ns), len(want))
					}
					for i := range ns {
						if ns[i] != want[i] {
							t.Fatalf("trial %d σ=%v k=%d workers=%d: neighbor %d = %+v, oracle %+v", trial, maxSigma, k, w, i, ns[i], want[i])
						}
					}
				}
			}
		}
	}
}
