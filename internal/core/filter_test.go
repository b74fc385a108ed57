package core

// Differential test, allocation ceiling and micro-benchmark for the
// per-class structural intersection, over a molecule-like corpus whose
// Q8-Q24 queries enumerate hundreds of fragments in a handful of classes.

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/fsys"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
)

type molFixture struct {
	db           []*graph.Graph
	heap, mapped *index.Index
}

func newMolFixture(t testing.TB, n int) molFixture {
	t.Helper()
	db := chem.Generate(n, chem.Config{Seed: 21})
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 5, MinEdges: 2, MinSupportFraction: 0.05, SampleSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	metric := distance.EdgeMutation{}
	heap, err := index.Build(db, feats, index.Options{Metric: metric})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.pisidx3")
	if err := fsys.WriteFileAtomic(fsys.OS, filepath.Dir(path), filepath.Base(path), heap.Save); err != nil {
		t.Fatal(err)
	}
	mapped, err := index.OpenMapped(path, metric)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return molFixture{db: db, heap: heap, mapped: mapped}
}

// TestStructuralCandidatesMatchPerFragment: ANDing the bitmap of each
// distinct class once gives exactly what intersecting one posting list per
// fragment of the query gives, on heap and mapped indexes, with and without
// tombstones.
func TestStructuralCandidatesMatchPerFragment(t *testing.T) {
	fx := newMolFixture(t, 300)
	rng := rand.New(rand.NewSource(5))
	var tombs *index.Tombstones
	for id := range fx.db {
		if rng.Intn(6) == 0 {
			tombs = tombs.WithSet(int32(id))
		}
	}
	for _, side := range []struct {
		name string
		idx  *index.Index
	}{{"heap", fx.heap}, {"mapped", fx.mapped}} {
		s := NewSearcher(fx.db, side.idx, Options{})
		sc := s.getScratch()
		queries, repeats, narrowed := 0, 0, 0
		for _, m := range []int{8, 12, 16, 20, 24} {
			for qi, q := range chem.SampleQueries(fx.db, 40, m, int64(m)) {
				tb := tombs
				if qi%2 == 0 {
					tb = nil
				}
				var st Stats
				s.queryClasses(q, &st, sc)
				got := s.structuralCandidates(sc, tb)

				frags := side.idx.QueryFragments(q)
				var want []int32
				for id := range fx.db {
					if !tb.Has(int32(id)) {
						want = append(want, int32(id))
					}
				}
				for _, qf := range frags {
					want = intersectSorted(nil, want, side.idx.Candidates(nil, []*index.Class{qf.Class}, nil))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s Q%d #%d: %d candidates, per-fragment intersection has %d", side.name, m, qi, len(got), len(want))
				}
				queries++
				repeats += len(frags) - len(sc.classes)
				if len(want) < len(fx.db)-tombs.Count() {
					narrowed++
				}
			}
		}
		s.putScratch(sc)
		if queries != 200 || repeats < 10*queries || narrowed < queries/2 {
			t.Fatalf("%s: %d queries, %d repeated classes skipped, %d narrowed the database: fixture too weak", side.name, queries, repeats, narrowed)
		}
	}
}

// TestSearchAllocsQ24: a steady-state Q24 search allocates its Result,
// not per enumerated fragment (before the filter ran on scratch: about
// 9,000 allocations) and not a canonical key per search (about 400): the
// key is computed once per query graph and cached on it.
func TestSearchAllocsQ24(t *testing.T) {
	fx := newMolFixture(t, 300)
	s := NewSearcher(fx.db, fx.heap, Options{VerifyWorkers: 1})
	qs := chem.SampleQueries(fx.db, 8, 24, 9)
	for range 3 {
		for _, q := range qs {
			s.Search(q, 1)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(40, func() {
		s.Search(qs[i%len(qs)], 1)
		i++
	})
	t.Logf("%.0f allocations per steady-state Q24 search", avg)
	if avg > 40 && !raceEnabled {
		t.Errorf("a steady-state Q24 search allocates %.0f times, want at most 40", avg)
	}
}
