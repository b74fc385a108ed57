package core

import (
	"math/rand"
	"testing"

	"pis/internal/distance"
	"pis/internal/index"
)

// Planner differential property tests: the cost-based planner reorders
// and skips σ range queries, which may only ever leave extra candidates
// behind — answers, distances, and kNN neighbor lists must be identical
// to the exhaustive Algorithm 2 expansion on every input.

func plannerSweep() []Options {
	return []Options{
		{},                      // defaults: budget 1, crossover 16
		{PlannerBudget: -1},     // never skip on estimated gain
		{PlannerCrossover: -1},  // never cross over to verification
		{PlannerBudget: 1e9},    // skip every range query outright
		{PlannerCrossover: 1e6}, // cross over immediately
		{PlannerBudget: 5, PlannerCrossover: 64},
		{PlannerBudget: 0.25, PlannerCrossover: 4},
	}
}

func TestPlannerDifferentialSearch(t *testing.T) {
	for _, tc := range metricCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(900))
			fx := buildFixture(t, rng, 35, tc.metric)
			exhaustive := NewSearcher(fx.db, fx.idx, Options{PlannerOff: true})
			for oi, opts := range plannerSweep() {
				planned := NewSearcher(fx.db, fx.idx, opts)
				for trial := 0; trial < 6; trial++ {
					q := sampleQuery(rng, fx.db, 3+rng.Intn(5))
					sigma := float64(rng.Intn(13)) / 4
					want := exhaustive.Search(q, sigma)
					got := planned.Search(q, sigma)
					if !equalIDs(want.Answers, got.Answers) || !equalF64(want.Distances, got.Distances) {
						t.Fatalf("opts %d trial %d σ=%v: planner changed the answers:\nwant %v\ngot  %v",
							oi, trial, sigma, want.Answers, got.Answers)
					}
					// The planner may only relax filtering: exhaustive
					// candidates survive planning, never the reverse.
					if !subset(want.Candidates, got.Candidates) {
						t.Fatalf("opts %d trial %d: planner dropped exhaustive candidates", oi, trial)
					}
					st := got.Stats
					if st.ExpandedFragments > st.UsedFragments {
						t.Fatalf("opts %d: expanded %d > usable %d", oi, st.ExpandedFragments, st.UsedFragments)
					}
					if st.StructCandidates < st.RangeCandidates || st.RangeCandidates < st.DistCandidates {
						t.Fatalf("opts %d: filter funnel not monotone: %+v", oi, st)
					}
				}
			}
		})
	}
}

func TestPlannerDifferentialKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(910))
	fx := buildFixture(t, rng, 40, distance.EdgeMutation{})
	exhaustive := NewSearcher(fx.db, fx.idx, Options{PlannerOff: true})
	for oi, opts := range plannerSweep() {
		planned := NewSearcher(fx.db, fx.idx, opts)
		for trial := 0; trial < 6; trial++ {
			q := sampleQuery(rng, fx.db, 3+rng.Intn(4))
			k := 1 + rng.Intn(5)
			maxSigma := float64(1 + rng.Intn(6))
			want := exhaustive.SearchKNN(q, k, 0, maxSigma)
			got := planned.SearchKNN(q, k, 0, maxSigma)
			if len(want) != len(got) {
				t.Fatalf("opts %d trial %d: %d neighbors vs %d", oi, trial, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("opts %d trial %d: neighbor %d differs: %+v vs %+v", oi, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPlannerDifferentialWithView replays random mutation overlays
// (tombstones + delta) under planner and exhaustive expansion.
func TestPlannerDifferentialWithView(t *testing.T) {
	rng := rand.New(rand.NewSource(920))
	fx := buildFixture(t, rng, 30, distance.EdgeMutation{})
	exhaustive := NewSearcher(fx.db, fx.idx, Options{PlannerOff: true})
	planned := NewSearcher(fx.db, fx.idx, Options{})
	for trial := 0; trial < 10; trial++ {
		var view View
		var tombs *index.Tombstones
		for i := 0; i < len(fx.db); i++ {
			if rng.Intn(5) == 0 {
				tombs = tombs.WithSet(int32(i))
			}
		}
		view.Tombs = tombs
		for i := 0; i < rng.Intn(6); i++ {
			view.Delta = append(view.Delta, randomMolecule(rng, 5+rng.Intn(5)))
		}
		q := sampleQuery(rng, fx.db, 3+rng.Intn(4))
		sigma := float64(rng.Intn(4))
		want := exhaustive.SearchView(q, sigma, view)
		got := planned.SearchView(q, sigma, view)
		if !equalIDs(want.Answers, got.Answers) || !equalF64(want.Distances, got.Distances) {
			t.Fatalf("trial %d σ=%v: planner changed answers under a mutation view", trial, sigma)
		}
		wantKNN := exhaustive.SearchKNNView(q, 3, 0, 5, view)
		gotKNN := planned.SearchKNNView(q, 3, 0, 5, view)
		if len(wantKNN) != len(gotKNN) {
			t.Fatalf("trial %d: view kNN lengths differ", trial)
		}
		for i := range wantKNN {
			if wantKNN[i] != gotKNN[i] {
				t.Fatalf("trial %d: view kNN neighbor %d differs", trial, i)
			}
		}
	}
}

// TestPlannerSavesWork: on a database where fragments outnumber what
// pruning needs, the default planner expands strictly fewer range
// queries than the exhaustive path while returning the same answers.
func TestPlannerSavesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(930))
	fx := buildFixture(t, rng, 60, distance.EdgeMutation{})
	exhaustive := NewSearcher(fx.db, fx.idx, Options{PlannerOff: true})
	planned := NewSearcher(fx.db, fx.idx, Options{})
	totalEx, totalPl := 0, 0
	for trial := 0; trial < 12; trial++ {
		q := sampleQuery(rng, fx.db, 6+rng.Intn(3))
		ex := exhaustive.Search(q, 2)
		pl := planned.Search(q, 2)
		if !equalIDs(ex.Answers, pl.Answers) {
			t.Fatal("answers diverged")
		}
		totalEx += ex.Stats.ExpandedFragments
		totalPl += pl.Stats.ExpandedFragments
	}
	if totalPl >= totalEx {
		t.Fatalf("planner expanded %d fragments, exhaustive %d — no work saved", totalPl, totalEx)
	}
}

// TestPlannerSkipAllStillExact: an absurd budget skips every range
// query; the search degenerates to structural filtering + verification
// and must still be exact.
func TestPlannerSkipAllStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(940))
	fx := buildFixture(t, rng, 30, distance.EdgeMutation{})
	s := NewSearcher(fx.db, fx.idx, Options{PlannerBudget: 1e12})
	for trial := 0; trial < 8; trial++ {
		q := sampleQuery(rng, fx.db, 3+rng.Intn(4))
		sigma := float64(rng.Intn(4))
		r := s.Search(q, sigma)
		if r.Stats.ExpandedFragments != 0 && r.Stats.UsedFragments > 0 {
			t.Fatalf("budget 1e12 still expanded %d fragments", r.Stats.ExpandedFragments)
		}
		naive := s.SearchNaive(q, sigma)
		if !equalIDs(naive.Answers, r.Answers) {
			t.Fatal("skip-all planner changed the answers")
		}
	}
}

// sanity: zero-value Options enable the planner with its defaults.
func TestPlannerDefaults(t *testing.T) {
	o := Options{}.normalized()
	if o.PlannerOff || o.PlannerBudget != 1 || o.PlannerCrossover != 16 {
		t.Fatalf("unexpected planner defaults: %+v", o)
	}
	o = Options{PlannerBudget: -3, PlannerCrossover: -2}.normalized()
	if o.PlannerBudget != 0 || o.PlannerCrossover != 0 {
		t.Fatalf("negative knobs should clamp to 0: %+v", o)
	}
}
