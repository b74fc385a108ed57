package core

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/fsys"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/iso"
	"pis/internal/mining"
)

// Differentials for the stage order and the planner's learned survival
// rates: the prescreen ahead of the σ range queries, and whatever the
// planner has learned (or been told) about each class's range query, may
// only change which candidates reach exact verification — never an
// answer, a distance or a neighbor.

// moleculeFixture is a synthetic molecule corpus with its index, on the
// heap or reopened through a file mapping, under a mutation snapshot with
// tombstones and a live delta.
type moleculeFixture struct {
	fixture
	view    View
	queries []*graph.Graph
	// The oracles' verdicts per query, at σ = sigmaOf(qi) and k = kOf(qi):
	// SearchNaiveView and a brute-force kNN.
	naive []Result
	knn   [][]Neighbor
}

func sigmaOf(qi int) float64 { return float64(qi % 4) }
func kOf(qi int) int         { return 1 + qi%5 }

const knnMaxSigma = 4

func newMoleculeFixture(t *testing.T, mapped bool) moleculeFixture {
	t.Helper()
	all := chem.Generate(312, chem.Config{Seed: 5})
	db, delta := all[:300], all[300:]
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 5, MinEdges: 2, MinSupportFraction: 0.05, SampleSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	metric := distance.EdgeMutation{}
	idx, err := index.Build(db, feats, index.Options{Metric: metric})
	if err != nil {
		t.Fatal(err)
	}
	if mapped {
		path := filepath.Join(t.TempDir(), "idx.pisidx3")
		if err := fsys.WriteFileAtomic(fsys.OS, filepath.Dir(path), filepath.Base(path), idx.Save); err != nil {
			t.Fatal(err)
		}
		if idx, err = index.OpenMapped(path, metric); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { idx.Close() })
	}
	rng := rand.New(rand.NewSource(6))
	var view View
	for i := range db {
		if rng.Intn(10) == 0 {
			view.Tombs = view.Tombs.WithSet(int32(i))
		}
	}
	view.Tombs = view.Tombs.WithSet(int32(len(db) + 3)) // a deleted insert
	view.Delta = append(view.Delta, delta...)
	fx := moleculeFixture{
		fixture: fixture{db: db, idx: idx},
		view:    view,
		queries: chem.SampleQueries(all, 20, 12, 7),
	}
	oracle := NewSearcher(db, idx, Options{})
	for qi, q := range fx.queries {
		fx.naive = append(fx.naive, oracle.SearchNaiveView(q, sigmaOf(qi), view))
		fx.knn = append(fx.knn, fx.bruteKNN(q, kOf(qi), knnMaxSigma))
	}
	return fx
}

// bruteKNN is the kNN oracle: the exact distance to every live graph,
// nearest first, ties by id.
func (fx moleculeFixture) bruteKNN(q *graph.Graph, k int, maxSigma float64) []Neighbor {
	var all []Neighbor
	for id := 0; id < len(fx.db)+len(fx.view.Delta); id++ {
		if fx.view.Tombs.Has(int32(id)) {
			continue
		}
		g := (&Searcher{db: fx.db}).Graph(fx.view, int32(id))
		if d := iso.MinSuperimposedDistance(q, g, distance.EdgeMutation{}, -1); !distance.IsInfinite(d) && d <= maxSigma {
			all = append(all, Neighbor{ID: int32(id), Distance: d})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Distance != all[j].Distance {
			return all[i].Distance < all[j].Distance
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// check compares s against the oracles on every fixture query.
func (fx moleculeFixture) check(t *testing.T, name string, s *Searcher) {
	t.Helper()
	for qi, q := range fx.queries {
		sigma, want := sigmaOf(qi), fx.naive[qi]
		got := searchView(s, q, sigma, fx.view)
		if !equalIDs(want.Answers, got.Answers) || !equalF64(want.Distances, got.Distances) {
			t.Fatalf("%s query %d σ=%v: answers %v %v, naive %v %v", name, qi, sigma, got.Answers, got.Distances, want.Answers, want.Distances)
		}
		st := got.Stats
		if st.StructCandidates+len(fx.view.Delta)-st.PrescreenRejects < st.RangeCandidates || st.RangeCandidates < st.DistCandidates ||
			len(got.Candidates) != st.VerifyCacheHits+st.Verified {
			t.Fatalf("%s query %d σ=%v: funnel broken: %+v, %d candidates", name, qi, sigma, st, len(got.Candidates))
		}
		k, wantKNN := kOf(qi), fx.knn[qi]
		gotKNN := searchKNNView(s, q, k, knnMaxSigma, fx.view)
		if len(wantKNN) != len(gotKNN) {
			t.Fatalf("%s query %d k=%d: %d neighbors, brute force %d", name, qi, k, len(gotKNN), len(wantKNN))
		}
		for i := range wantKNN {
			if wantKNN[i] != gotKNN[i] {
				t.Fatalf("%s query %d k=%d: neighbor %d is %+v, brute force %+v", name, qi, k, i, gotKNN[i], wantKNN[i])
			}
		}
	}
}

// forceSurvival overwrites every learned cell.
func forceSurvival(s *Searcher, v float64) {
	for i := range s.survival {
		s.survival[i].Store(math.Float64bits(v))
	}
}

func TestPlannerLearnedDifferential(t *testing.T) {
	for _, mapped := range []bool{false, true} {
		name := map[bool]string{false: "heap", true: "mapped"}[mapped]
		t.Run(name, func(t *testing.T) {
			fx := newMoleculeFixture(t, mapped)

			s := NewSearcher(fx.db, fx.idx, Options{})
			fx.check(t, "cold", s)

			// 500 warm-up searches over other queries and radii fill the
			// cells (and cross the explore period many times over).
			warm := chem.SampleQueries(fx.db, 100, 12, 8)
			for i := 0; i < 500; i++ {
				searchView(s, warm[i%len(warm)], float64(i%3), fx.view)
			}
			if len(s.LearnedSurvival()) == 0 {
				t.Fatal("500 searches observed no range query: the differential would not exercise learned rates")
			}
			for _, c := range s.LearnedSurvival() {
				if c.Survival < minSurvival || c.Survival > 1 || c.Class >= len(fx.idx.Classes()) || c.SigmaBucket >= survivalBuckets {
					t.Fatalf("learned cell out of range: %+v", c)
				}
			}
			fx.check(t, "warm", s)

			// Whatever the cells say — every range query prunes everything,
			// or nothing — only the work moves.
			forceSurvival(s, minSurvival)
			fx.check(t, "forced 1/1024", s)
			forceSurvival(s, 1)
			fx.check(t, "forced 1", s)

			frozen := NewSearcher(fx.db, fx.idx, Options{PlannerOff: true})
			if frozen.survival != nil {
				t.Fatal("PlannerOff: searcher keeps learned state")
			}
			fx.check(t, "PlannerOff", frozen)

			// Candidate counting: no prescreen runs and nothing is learned.
			counter := NewSearcher(fx.db, fx.idx, Options{})
			if st := counter.CountCandidates(fx.queries[0], 2); st.PrescreenRejects != 0 || st.Verified != 0 {
				t.Fatalf("CountCandidates ran a verification tier: %+v", st)
			}
			if len(counter.LearnedSurvival()) != 0 || counter.exchangeRate() != 0 {
				t.Fatal("CountCandidates taught the planner")
			}
		})
	}
}

// TestPlannerLearnedPrefersWhatPrunes pins the behaviour the learned rates
// exist for: a class whose range query is known to leave everything
// standing is not expanded, and one known to prune is.
func TestPlannerLearnedPrefersWhatPrunes(t *testing.T) {
	fx := newMoleculeFixture(t, false)
	s := NewSearcher(fx.db, fx.idx, Options{})
	expanded := func() (n int) {
		for _, q := range fx.queries {
			// Skip the periodic prior-only search: it ignores the cells.
			for (s.searches.Load()+1)%plannerExploreEvery == 0 {
				s.searches.Add(1)
			}
			n += s.Search(q, 1).Stats.ExpandedFragments
		}
		return n
	}
	forceSurvival(s, 1)
	if n := expanded(); n != 0 {
		t.Errorf("%d range queries ran although every class is known to prune nothing", n)
	}
	forceSurvival(s, minSurvival)
	if n := expanded(); n == 0 {
		t.Error("no range query ran although every class is known to prune everything")
	}
}

// TestPlannerLearnedConcurrent drives one Searcher — its cells, its
// exchange rate, its explore counter — from four goroutines under -race,
// checking every answer against the oracle.
func TestPlannerLearnedConcurrent(t *testing.T) {
	fx := newMoleculeFixture(t, false)
	s := NewSearcher(fx.db, fx.idx, Options{VerifyWorkers: 1})
	want := fx.naive
	skipped, explored := mPlannerSkipped.Value(), mPlannerExplore.Value()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(fx.queries); i++ {
				qi := (i + g*5) % len(fx.queries)
				got := searchView(s, fx.queries[qi], sigmaOf(qi), fx.view)
				if !equalIDs(want[qi].Answers, got.Answers) || !equalF64(want[qi].Distances, got.Distances) {
					t.Errorf("goroutine %d query %d: answers diverged", g, qi)
					return
				}
				searchKNNView(s, fx.queries[qi], 3, knnMaxSigma, fx.view)
				s.LearnedSurvival()
			}
		}(g)
	}
	wg.Wait()
	if mPlannerSkipped.Value() == skipped {
		t.Error("pis_planner_range_queries_skipped_total did not advance")
	}
	if mPlannerExplore.Value() == explored {
		t.Error("pis_planner_explore_searches_total did not advance over several hundred searches")
	}
}
