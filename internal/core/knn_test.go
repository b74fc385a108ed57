package core

import (
	"math/rand"
	"testing"

	"pis/internal/distance"
	"pis/internal/iso"
	"pis/internal/obs"
)

func TestSearchKNNMatchesOracle(t *testing.T) {
	fx := newFixture(t, 51, 40)
	s := NewSearcher(fx.db, fx.idx, Options{})
	metric := distance.EdgeMutation{}
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 8; trial++ {
		q := sampleQuery(rng, fx.db, 5)
		k := 1 + rng.Intn(6)
		const maxSigma = 16
		got := s.SearchKNN(q, k, maxSigma)

		// Oracle: exact distance to every graph, sort, cut.
		type nd struct {
			id int32
			d  float64
		}
		var all []nd
		for id, g := range fx.db {
			d := iso.MinSuperimposedDistance(q, g, metric, maxSigma)
			if !distance.IsInfinite(d) {
				all = append(all, nd{int32(id), d})
			}
		}
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				if all[j].d < all[i].d || (all[j].d == all[i].d && all[j].id < all[i].id) {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		want := all
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d k=%d: got %d neighbors, want %d", trial, k, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].id || got[i].Distance != want[i].d {
				t.Fatalf("trial %d: neighbor %d = %+v, want {%d %v}",
					trial, i, got[i], want[i].id, want[i].d)
			}
		}
	}
}

func TestSearchKNNSortedAndBounded(t *testing.T) {
	fx := newFixture(t, 53, 30)
	s := NewSearcher(fx.db, fx.idx, Options{})
	rng := rand.New(rand.NewSource(54))
	q := sampleQuery(rng, fx.db, 6)
	ns := s.SearchKNN(q, 5, 8)
	if len(ns) == 0 {
		t.Fatal("no neighbors for a query sampled from the database")
	}
	if ns[0].Distance != 0 {
		t.Errorf("nearest distance %v, want 0 (query cut from the database)", ns[0].Distance)
	}
	for i := 1; i < len(ns); i++ {
		if ns[i].Distance < ns[i-1].Distance {
			t.Fatal("neighbors not sorted by distance")
		}
	}
	for _, n := range ns {
		if n.Distance > 8 {
			t.Fatalf("neighbor beyond maxSigma: %+v", n)
		}
	}
}

func TestSearchKNNEdgeCases(t *testing.T) {
	fx := newFixture(t, 55, 10)
	s := NewSearcher(fx.db, fx.idx, Options{})
	rng := rand.New(rand.NewSource(56))
	q := sampleQuery(rng, fx.db, 4)
	if ns := s.SearchKNN(q, 0, 4); ns != nil {
		t.Error("k=0 should return nil")
	}
	if ns := s.SearchKNN(q, 3, -1); ns != nil {
		t.Error("negative maxSigma should return nil")
	}
	// Huge k: returns every structure-containing graph within maxSigma.
	ns := s.SearchKNN(q, 10000, 4)
	r := s.Search(q, 4)
	if len(ns) != len(r.Answers) {
		t.Errorf("huge k returned %d, want %d", len(ns), len(r.Answers))
	}
}

// TestKNNOneFilterPass: a kNN query runs the filter once, at maxσ, even
// when fewer than k neighbors lie within a smaller radius. With the
// planner off every usable fragment's range query runs, so one SearchKNN
// must cost exactly the range queries of one Search at maxσ.
func TestKNNOneFilterPass(t *testing.T) {
	fx := newMoleculeFixture(t, false)
	s := NewSearcher(fx.db, fx.idx, Options{PlannerOff: true})
	rangeQueries := obs.Default().Counter("pis_index_range_queries_total", "")
	const k, maxSigma = 10, 4
	checked := 0
	for qi, q := range fx.queries {
		if len(searchView(s, q, 1, fx.view).Answers) >= k {
			continue // k fill at σ = 1: one pass either way
		}
		before := rangeQueries.Value()
		searchView(s, q, maxSigma, fx.view)
		search := rangeQueries.Value() - before
		before = rangeQueries.Value()
		searchKNNView(s, q, k, maxSigma, fx.view)
		if knn := rangeQueries.Value() - before; knn != search || search == 0 {
			t.Errorf("query %d: kNN ran %d range queries, one search at σ=%v runs %d", qi, knn, maxSigma, search)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no query leaves k unfilled at σ = 1")
	}
}
