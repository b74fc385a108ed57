package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestFunnelStrictlyMonotone pins the funnel of the Stats doc on the
// planner path, held to the lowest exchange rate, and on the exhaustive
// path: every stage only narrows the candidate set, the prescreen is
// counted ahead of the range queries, the verification tiers account for
// every candidate that reached them, and across a workload the Eq. 2
// bound prunes range survivors. A partition of two or more fragments is
// what that needs, and on 150 graphs the prescreen leaves a handful of
// candidates that range queries rarely thin, so even at ρ = 1 the planner
// stops after a few dry expansions: the pruning is asserted where every
// range query runs.
func TestFunnelStrictlyMonotone(t *testing.T) {
	fx := newFixture(t, 41, 150)
	planned := NewSearcher(fx.db, fx.idx, Options{})
	exhaustive := NewSearcher(fx.db, fx.idx, Options{PlannerOff: true})
	rng := rand.New(rand.NewSource(42))
	var agg Stats // the exhaustive path's
	for i := 0; i < 25; i++ {
		// Queries need enough vertices that a second, vertex-disjoint
		// fragment exists; tiny queries legitimately partition as one.
		q := sampleQuery(rng, fx.db, 10)
		pinExchangeRate(planned, 1)
		ex := exhaustive.Search(q, 2)
		for _, r := range []Result{planned.Search(q, 2), ex} {
			st := r.Stats
			if st.StructCandidates-st.PrescreenRejects < st.RangeCandidates || st.RangeCandidates < st.DistCandidates {
				t.Fatalf("funnel not monotone: struct %d − prescreen %d, range %d, dist %d",
					st.StructCandidates, st.PrescreenRejects, st.RangeCandidates, st.DistCandidates)
			}
			if got := st.Verified + st.VerifyCacheHits; got != len(r.Candidates) {
				t.Fatalf("tiers account for %d of %d candidates: %+v", got, len(r.Candidates), st)
			}
		}
		agg.Add(ex.Stats)
	}
	if agg.DistCandidates >= agg.RangeCandidates {
		t.Errorf("partition pruning never fired: range %d, dist %d", agg.RangeCandidates, agg.DistCandidates)
	}
}

// TestTieredMatchesNaive is the differential proof for both prescreen
// tiers: across random queries and radii the tiered PIS path must return
// exactly the naive baseline's answers and distances.
func TestTieredMatchesNaive(t *testing.T) {
	fx := newFixture(t, 43, 80)
	s := NewSearcher(fx.db, fx.idx, Options{})
	rng := rand.New(rand.NewSource(44))
	var pre, inv, nodes int
	for trial := 0; trial < 20; trial++ {
		q := sampleQuery(rng, fx.db, 4+rng.Intn(4))
		for _, sigma := range []float64{0, 1, 3, 2, 1} {
			got := s.Search(q, sigma)
			want := s.SearchNaive(q, sigma)
			if !reflect.DeepEqual(got.Answers, want.Answers) {
				t.Fatalf("sigma %g: answers %v, want %v", sigma, got.Answers, want.Answers)
			}
			if !reflect.DeepEqual(got.Distances, want.Distances) {
				t.Fatalf("sigma %g: distances %v, want %v", sigma, got.Distances, want.Distances)
			}
			pre += got.Stats.PrescreenRejects
			inv += got.Stats.InvariantRejects
			nodes += got.Stats.VerifyNodes
			if st := got.Stats; st.InvariantRejects > st.PrescreenRejects || (st.Verified > 0) != (st.VerifyNodes > 0) {
				t.Fatalf("sigma %g: inconsistent tier counters %+v", sigma, st)
			}
			if n := want.Stats.PrescreenRejects; n != 0 {
				t.Fatalf("naive path used the prescreen: %d rejects", n)
			}
		}
	}
	if pre == 0 || inv == 0 || inv == pre {
		t.Errorf("prescreen rejected %d candidates, %d of them by invariants — differential test is vacuous for a tier", pre, inv)
	}
	if nodes == 0 {
		t.Error("no branch-and-bound node counted")
	}
}

// TestPlannerLearnsExchangeRate: after a real workload both stage costs
// have been observed, so the learned rate must be live and in range, and
// the answers must be exhaustive expansion's (the rate only moves effort
// between filter and verify, never answers).
func TestPlannerLearnsExchangeRate(t *testing.T) {
	fx := newFixture(t, 49, 80)
	s := NewSearcher(fx.db, fx.idx, Options{})
	exhaustive := NewSearcher(fx.db, fx.idx, Options{PlannerOff: true})
	rng := rand.New(rand.NewSource(50))
	for i := 0; i < 10; i++ {
		q := sampleQuery(rng, fx.db, 5)
		a := s.Search(q, 2)
		b := exhaustive.Search(q, 2)
		if !reflect.DeepEqual(a.Answers, b.Answers) {
			t.Fatalf("learned exchange rate changed answers: %v vs %v", a.Answers, b.Answers)
		}
	}
	if rho := s.exchangeRate(); rho < 1 || rho > 1024 {
		t.Errorf("exchange rate %d outside [1,1024] after workload", rho)
	}
}
