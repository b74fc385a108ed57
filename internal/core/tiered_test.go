package core

import (
	"math/rand"
	"reflect"
	"testing"

	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
)

// TestFunnelStrictlyMonotone pins the funnel of the Stats doc on the
// planner path: every stage only narrows the candidate set, the prescreen
// is counted ahead of the range queries, the verification tiers account
// for every candidate that reached them, and across a workload the Eq. 2
// bound prunes range survivors (a partition of two or more fragments is
// what it needs, so the planner is held to exhaustive expansion: on 150
// graphs the prescreen leaves a handful of candidates, fewer than the
// default crossover and than any learned break-even count).
func TestFunnelStrictlyMonotone(t *testing.T) {
	fx := newFixture(t, 41, 150)
	s := NewSearcher(fx.db, fx.idx, Options{PlannerCrossover: -1, PlannerBudget: -1})
	rng := rand.New(rand.NewSource(42))
	var agg Stats
	for i := 0; i < 25; i++ {
		// Queries need enough vertices that a second, vertex-disjoint
		// fragment exists; tiny queries legitimately partition as one.
		r := s.Search(sampleQuery(rng, fx.db, 10), 2)
		st := r.Stats
		if st.StructCandidates-st.PrescreenRejects < st.RangeCandidates || st.RangeCandidates < st.DistCandidates {
			t.Fatalf("funnel not monotone: struct %d − prescreen %d, range %d, dist %d",
				st.StructCandidates, st.PrescreenRejects, st.RangeCandidates, st.DistCandidates)
		}
		if got := st.Verified + st.VerifyCacheHits; got != len(r.Candidates) {
			t.Fatalf("tiers account for %d of %d candidates: %+v", got, len(r.Candidates), st)
		}
		agg.Add(st)
	}
	if agg.DistCandidates >= agg.RangeCandidates {
		t.Errorf("partition pruning never fired on the planner path: range %d, dist %d",
			agg.RangeCandidates, agg.DistCandidates)
	}
	if agg.PartitionSize < agg.ExpandedFragments/4 {
		t.Logf("note: partitions stayed small (%d over %d expansions)", agg.PartitionSize, agg.ExpandedFragments)
	}
}

// TestTieredMatchesNaive is the differential proof for both prescreen
// tiers and the verify cache: across random queries and radii — with repeats, so
// the cache serves both exact and proven-non-answer verdicts, and radius
// changes, so budget upgrades are exercised — the tiered PIS path must
// return exactly the naive baseline's answers and distances.
func TestTieredMatchesNaive(t *testing.T) {
	fx := newFixture(t, 43, 80)
	s := NewSearcher(fx.db, fx.idx, Options{})
	rng := rand.New(rand.NewSource(44))
	var pre, inv, hits, nodes int
	for trial := 0; trial < 20; trial++ {
		q := sampleQuery(rng, fx.db, 4+rng.Intn(4))
		// Ascending then descending radii over the same query: negative
		// verdicts cached at a small budget must not leak into larger
		// radii, and exact verdicts must answer any radius.
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
			hits += got.Stats.VerifyCacheHits
			nodes += got.Stats.VerifyNodes
			if st := got.Stats; st.InvariantRejects > st.PrescreenRejects || (st.Verified > 0) != (st.VerifyNodes > 0) {
				t.Fatalf("sigma %g: inconsistent tier counters %+v", sigma, st)
			}
			if n, w := want.Stats.PrescreenRejects, want.Stats.VerifyCacheHits; n != 0 || w != 0 {
				t.Fatalf("naive path used the tiers: prescreen %d, cache %d", n, w)
			}
		}
	}
	if pre == 0 || inv == 0 || inv == pre {
		t.Errorf("prescreen rejected %d candidates, %d of them by invariants — differential test is vacuous for a tier", pre, inv)
	}
	if nodes == 0 {
		t.Error("no branch-and-bound node counted")
	}
	if hits == 0 {
		t.Error("verify cache never hit despite repeated queries — differential test is vacuous")
	}
}

// TestVerifyCacheRepeatQuery: an identical query re-run against the same
// searcher generation must be answered (at least partly) from the cache,
// with identical answers and strictly less branch-and-bound work.
func TestVerifyCacheRepeatQuery(t *testing.T) {
	fx := newFixture(t, 45, 60)
	s := NewSearcher(fx.db, fx.idx, Options{})
	rng := rand.New(rand.NewSource(46))
	q := sampleQuery(rng, fx.db, 5)
	first := s.Search(q, 2)
	second := s.Search(q, 2)
	if !reflect.DeepEqual(first.Answers, second.Answers) || !reflect.DeepEqual(first.Distances, second.Distances) {
		t.Fatalf("repeat query changed answers: %v vs %v", first.Answers, second.Answers)
	}
	if first.Stats.VerifyCacheHits != 0 {
		t.Errorf("cold query hit the cache %d times", first.Stats.VerifyCacheHits)
	}
	if first.Stats.Verified > 0 && second.Stats.VerifyCacheHits == 0 {
		t.Errorf("repeat query missed the cache entirely: first %+v, second %+v", first.Stats, second.Stats)
	}
	if second.Stats.Verified >= first.Stats.Verified && first.Stats.Verified > 0 {
		t.Errorf("repeat query verified no less: %d then %d", first.Stats.Verified, second.Stats.Verified)
	}
}

// TestVerifyCacheDisabled: VerifyCacheSize < 0 must turn the tier off.
func TestVerifyCacheDisabled(t *testing.T) {
	fx := newFixture(t, 47, 40)
	s := NewSearcher(fx.db, fx.idx, Options{VerifyCacheSize: -1})
	rng := rand.New(rand.NewSource(48))
	q := sampleQuery(rng, fx.db, 5)
	want := s.Search(q, 2)
	got := s.Search(q, 2)
	if got.Stats.VerifyCacheHits != 0 || want.Stats.VerifyCacheHits != 0 {
		t.Fatalf("disabled cache still hit: %d / %d", want.Stats.VerifyCacheHits, got.Stats.VerifyCacheHits)
	}
	if !reflect.DeepEqual(got.Answers, want.Answers) {
		t.Fatalf("answers drifted with cache off: %v vs %v", got.Answers, want.Answers)
	}
}

// TestPlannerLearnsExchangeRate: after a real workload both stage costs
// have been observed, so the learned rate must be live and in range, and
// turning feedback off must leave results identical (the rate only moves
// effort between filter and verify, never answers).
func TestPlannerLearnsExchangeRate(t *testing.T) {
	fx := newFixture(t, 49, 80)
	s := NewSearcher(fx.db, fx.idx, Options{})
	frozen := NewSearcher(fx.db, fx.idx, Options{PlannerFeedbackOff: true})
	rng := rand.New(rand.NewSource(50))
	for i := 0; i < 10; i++ {
		q := sampleQuery(rng, fx.db, 5)
		a := s.Search(q, 2)
		b := frozen.Search(q, 2)
		if !reflect.DeepEqual(a.Answers, b.Answers) {
			t.Fatalf("learned exchange rate changed answers: %v vs %v", a.Answers, b.Answers)
		}
	}
	if rho := s.exchangeRate(); rho < 1 || rho > 1024 {
		t.Errorf("exchange rate %d outside [1,1024] after workload", rho)
	}
	if frozen.exchangeRate() == 0 {
		// Feedback-off still observes costs; it just never applies them.
		t.Log("frozen searcher observed no costs (acceptable: application is what's disabled)")
	}
}

// TestVerifyCacheRotationBounds: the two-generation rotation must keep
// the cache at or under its configured capacity while still answering
// recent queries.
func TestVerifyCacheRotationBounds(t *testing.T) {
	c := newVerifyCache(8)
	for i := 0; i < 1000; i++ {
		c.put(vcKey{q: "q", id: int32(i)}, float64(i%3), 5)
		if n := len(c.cur) + len(c.prev); n > 8 {
			t.Fatalf("cache grew to %d entries with capacity 8", n)
		}
	}
	// The most recent write is always resident.
	if d, hit := c.lookup(vcKey{q: "q", id: 999}, 5); !hit || d != float64(999%3) {
		t.Fatalf("most recent entry missing: hit=%v d=%g", hit, d)
	}
}

// TestVerifyCacheBudgetSemantics pins the verdict-reuse rules: an exact
// distance answers any radius; a proven non-answer only covers radii up
// to its budget and upgrades when re-verified at a larger one.
func TestVerifyCacheBudgetSemantics(t *testing.T) {
	c := newVerifyCache(32)
	k := vcKey{q: "q", id: 1}
	// Proven non-answer at budget 2.
	c.put(k, distance.Infinite, 2)
	if _, hit := c.lookup(k, 2); !hit {
		t.Fatal("negative verdict must answer sigma <= budget")
	}
	if _, hit := c.lookup(k, 3); hit {
		t.Fatal("negative verdict must not answer sigma > budget")
	}
	// Upgrade to a larger budget; smaller-budget re-put must not downgrade.
	c.put(k, distance.Infinite, 5)
	if _, hit := c.lookup(k, 4); !hit {
		t.Fatal("budget upgrade lost")
	}
	c.put(k, distance.Infinite, 1)
	if _, hit := c.lookup(k, 4); !hit {
		t.Fatal("smaller-budget put downgraded the entry")
	}
	// Exact verdict answers any radius and is never overwritten.
	c.put(k, 3, 4)
	if d, hit := c.lookup(k, 100); !hit || d != 3 {
		t.Fatalf("exact verdict not reusable at larger radius: hit=%v d=%g", hit, d)
	}
	if d, hit := c.lookup(k, 1); !hit || d != 3 {
		t.Fatalf("exact verdict not reusable at smaller radius: hit=%v d=%g", hit, d)
	}
	c.put(k, distance.Infinite, 50)
	if d, hit := c.lookup(k, 100); !hit || d != 3 {
		t.Fatalf("exact verdict overwritten by a negative one: hit=%v d=%g", hit, d)
	}
}

// TestPrescreenSkipsDeltaWithoutFPs: a view whose delta carries no
// fingerprints must still answer correctly — unknown graphs are exempt
// from the prescreen, never rejected.
func TestPrescreenSkipsDeltaWithoutFPs(t *testing.T) {
	fx := newFixture(t, 51, 40)
	s := NewSearcher(fx.db, fx.idx, Options{})
	rng := rand.New(rand.NewSource(52))
	extra := randomMolecule(rng, 8)
	view := View{Delta: []*graph.Graph{extra}} // no DeltaFPs on purpose
	q := sampleQuery(rng, fx.db, 4)
	got := s.SearchView(q, 3, view)
	want := s.SearchNaiveView(q, 3, view)
	if !reflect.DeepEqual(got.Answers, want.Answers) {
		t.Fatalf("answers %v, want %v", got.Answers, want.Answers)
	}
	withFPs := View{Delta: view.Delta, DeltaFPs: []index.GraphFP{index.DeltaFP(extra)}}
	got2 := s.SearchView(q, 3, withFPs)
	if !reflect.DeepEqual(got2.Answers, want.Answers) {
		t.Fatalf("answers with delta fingerprints %v, want %v", got2.Answers, want.Answers)
	}
}
