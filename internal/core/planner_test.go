package core

import (
	"math"
	"math/rand"
	"testing"

	"pis/internal/distance"
	"pis/internal/index"
)

// Planner differential property tests: the cost-based planner reorders
// and skips σ range queries, which may only ever leave extra candidates
// behind — answers, distances, and kNN neighbor lists must be identical
// to the exhaustive Algorithm 2 expansion on every input.

// pinExchangeRate seeds the stage costs the planner learns its exchange
// rate from (Searcher.thresholds), so that the next search plans at ρ =
// rho, clamped to [1, 1024] as a learned rate is: ρ = 1 keeps the planner
// near exhaustive expansion and ρ = 1024 crosses over to verification
// before any range query on a fixture of fewer graphs. rho = 0 forgets
// both costs, back to the cold-start thresholds. The search's own
// observations move the rate again, so tests pin before every search.
func pinExchangeRate(s *Searcher, rho float64) {
	var verify float64
	if rho > 0 {
		verify = 1e9
	}
	s.verifyCandNS.Store(math.Float64bits(verify))
	s.rangeQueryNS.Store(math.Float64bits(rho * verify))
}

// plannerSweep is the exchange rates the differentials pin: cold start,
// both extremes, and two in between.
var plannerSweep = []float64{0, 1, 1024, 5, 64}

func TestPlannerDifferentialSearch(t *testing.T) {
	for _, tc := range metricCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(900))
			fx := buildFixture(t, rng, 35, tc.metric)
			exhaustive := NewSearcher(fx.db, fx.idx, Options{PlannerOff: true})
			for _, rho := range plannerSweep {
				planned := NewSearcher(fx.db, fx.idx, Options{})
				for trial := 0; trial < 6; trial++ {
					q := sampleQuery(rng, fx.db, 3+rng.Intn(5))
					sigma := float64(rng.Intn(13)) / 4
					want := exhaustive.Search(q, sigma)
					pinExchangeRate(planned, rho)
					got := planned.Search(q, sigma)
					if !equalIDs(want.Answers, got.Answers) || !equalF64(want.Distances, got.Distances) {
						t.Fatalf("ρ=%v trial %d σ=%v: planner changed the answers:\nwant %v\ngot  %v",
							rho, trial, sigma, want.Answers, got.Answers)
					}
					// The planner may only relax filtering: exhaustive
					// candidates survive planning, never the reverse.
					if !subset(want.Candidates, got.Candidates) {
						t.Fatalf("ρ=%v trial %d: planner dropped exhaustive candidates", rho, trial)
					}
					st := got.Stats
					if st.ExpandedFragments > st.UsedFragments {
						t.Fatalf("ρ=%v: expanded %d > usable %d", rho, st.ExpandedFragments, st.UsedFragments)
					}
					if st.StructCandidates < st.RangeCandidates || st.RangeCandidates < st.DistCandidates {
						t.Fatalf("ρ=%v: filter funnel not monotone: %+v", rho, st)
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
	for _, rho := range plannerSweep {
		planned := NewSearcher(fx.db, fx.idx, Options{})
		for trial := 0; trial < 6; trial++ {
			q := sampleQuery(rng, fx.db, 3+rng.Intn(4))
			k := 1 + rng.Intn(5)
			maxSigma := float64(1 + rng.Intn(6))
			want := exhaustive.SearchKNN(q, k, maxSigma)
			pinExchangeRate(planned, rho)
			got := planned.SearchKNN(q, k, maxSigma)
			if len(want) != len(got) {
				t.Fatalf("ρ=%v trial %d: %d neighbors vs %d", rho, trial, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("ρ=%v trial %d: neighbor %d differs: %+v vs %+v", rho, trial, i, got[i], want[i])
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
		want := searchView(exhaustive, q, sigma, view)
		got := searchView(planned, q, sigma, view)
		if !equalIDs(want.Answers, got.Answers) || !equalF64(want.Distances, got.Distances) {
			t.Fatalf("trial %d σ=%v: planner changed answers under a mutation view", trial, sigma)
		}
		wantKNN := searchKNNView(exhaustive, q, 3, 5, view)
		gotKNN := searchKNNView(planned, q, 3, 5, view)
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

// TestPlannerSkipAllStillExact: an exchange rate above the candidate
// count crosses over before any range query; the search degenerates to
// structural filtering + verification and must still be exact.
func TestPlannerSkipAllStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(940))
	fx := buildFixture(t, rng, 30, distance.EdgeMutation{})
	s := NewSearcher(fx.db, fx.idx, Options{})
	for trial := 0; trial < 8; trial++ {
		q := sampleQuery(rng, fx.db, 3+rng.Intn(4))
		sigma := float64(rng.Intn(4))
		pinExchangeRate(s, 1024)
		r := s.Search(q, sigma)
		if r.Stats.ExpandedFragments != 0 {
			t.Fatalf("ρ = 1024 still expanded %d fragments", r.Stats.ExpandedFragments)
		}
		naive := s.SearchNaive(q, sigma)
		if !equalIDs(naive.Answers, r.Answers) {
			t.Fatal("skip-all planner changed the answers")
		}
	}
}

// TestPlannerDefaults: a searcher that has observed no stage cost plans
// with the cold-start thresholds, and one that has, with the learned
// exchange rate for both.
func TestPlannerDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(950))
	fx := buildFixture(t, rng, 10, distance.EdgeMutation{})
	s := NewSearcher(fx.db, fx.idx, Options{})
	if s.opts.PlannerOff || s.survival == nil {
		t.Fatalf("zero Options do not plan and learn: %+v", s.opts)
	}
	if b, c := s.thresholds(true); b != coldBudget || c != coldCrossover {
		t.Fatalf("cold thresholds %v, %d; want %v, %d", b, c, coldBudget, coldCrossover)
	}
	for _, rho := range []float64{0.25, 5, 1e6} {
		pinExchangeRate(s, rho)
		want := int(min(max(rho, 1), 1024))
		if b, c := s.thresholds(true); b != float64(want) || c != want {
			t.Fatalf("ρ = %v: thresholds %v, %d; want %d for both", rho, b, c, want)
		}
	}
}
