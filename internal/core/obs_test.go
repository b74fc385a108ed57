package core

import (
	"math/rand"
	"testing"
	"time"

	"pis/internal/obs"
)

// TestTraceSpansSumToWallTime checks the span-tree contract: a traced
// search's child stages are disjoint slices of the query's wall
// interval, so their durations sum to at most the root duration, and —
// because the pipeline is only snapshot capture plus the instrumented
// stages — to most of it on real queries.
func TestTraceSpansSumToWallTime(t *testing.T) {
	fx := newFixture(t, 7, 400)
	s := NewSearcher(fx.db, fx.idx, Options{VerifyWorkers: 1})
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for i := 0; i < 30; i++ {
		q := sampleQuery(rng, fx.db, 3)
		start := time.Now()
		r := s.Search(q, 2)
		wall := time.Since(start)
		sp := r.Stats.Trace(wall)
		if sp.DurationMS != obs.MS(wall) {
			t.Fatalf("root duration %v, want %v", sp.DurationMS, obs.MS(wall))
		}
		if len(sp.Children) != 3 {
			t.Fatalf("want plan/filter/verify children, got %d", len(sp.Children))
		}
		sum := sp.ChildSum()
		if sum > sp.DurationMS*1.001 {
			t.Fatalf("children sum %.4fms exceeds wall %.4fms", sum, sp.DurationMS)
		}
		// Only assert tightness on queries long enough for the fixed
		// outside-stage overhead to be a small fraction.
		if wall >= 200*time.Microsecond {
			checked++
			if sum < sp.DurationMS*0.5 {
				t.Errorf("children sum %.4fms is under half of wall %.4fms: stages unaccounted for", sum, sp.DurationMS)
			}
		}
		for attr, want := range map[string]int{
			"verified": r.Stats.Verified, "nodes": r.Stats.VerifyNodes,
			"prescreen_rejects": r.Stats.PrescreenRejects, "invariant_rejects": r.Stats.InvariantRejects,
		} {
			if got := sp.Children[2].Attrs[attr]; got != want {
				t.Errorf("verify span attr %s = %v, want %d", attr, got, want)
			}
		}
	}
	if checked == 0 {
		t.Skip("every query finished under 200µs; span-tightness assertion not exercised")
	}
}

// TestSearchRecordsMetrics checks that completing searches advances the
// shared registry's query counters and stage histograms.
func TestSearchRecordsMetrics(t *testing.T) {
	fx := newFixture(t, 8, 200)
	s := NewSearcher(fx.db, fx.idx, Options{VerifyWorkers: 1})
	rng := rand.New(rand.NewSource(8))
	before := queriesTotal.Value("pis")
	stagesBefore := stageSeconds.With("verify").Snapshot()
	nodesBefore, fpBefore, invBefore := mVerifyNodes.Value(), mRejectsFP.Value(), mRejectsInv.Value()
	var agg Stats
	for i := 0; i < 5; i++ {
		agg.Add(s.Search(sampleQuery(rng, fx.db, 3), 2).Stats)
	}
	if got := mVerifyNodes.Value() - nodesBefore; got != int64(agg.VerifyNodes) || got == 0 {
		t.Errorf("pis_verify_nodes_total advanced by %d, searches expanded %d nodes", got, agg.VerifyNodes)
	}
	fp, inv := mRejectsFP.Value()-fpBefore, mRejectsInv.Value()-invBefore
	if fp+inv != int64(agg.PrescreenRejects) || inv != int64(agg.InvariantRejects) {
		t.Errorf("pis_prescreen_rejects_total advanced by fingerprint %d + invariants %d, searches rejected %d, %d of them by invariants",
			fp, inv, agg.PrescreenRejects, agg.InvariantRejects)
	}
	if got := queriesTotal.Value("pis") - before; got != 5 {
		t.Fatalf("pis_queries_total advanced by %d, want 5", got)
	}
	diff := stageSeconds.With("verify").Snapshot().Sub(stagesBefore)
	if diff.Count() != 5 {
		t.Fatalf("verify stage histogram recorded %d observations, want 5", diff.Count())
	}
}

// TestTracePlanGains: the plan span of a single search's trace carries one
// (class, estimated gain, observed gain) per range query the planner ran,
// and the observed gains are exactly what the range stage removed from
// the prescreened candidates.
func TestTracePlanGains(t *testing.T) {
	fx := newFixture(t, 9, 300)
	s := NewSearcher(fx.db, fx.idx, Options{})
	rng := rand.New(rand.NewSource(9))
	seen := 0
	for i := 0; i < 10; i++ {
		pinExchangeRate(s, 1)
		r := s.Search(sampleQuery(rng, fx.db, 5), 2)
		plan := r.Trace(time.Millisecond).Children[0]
		if r.Stats.ExpandedFragments == 0 {
			if plan.Attrs["observed_gain"] != nil {
				t.Fatalf("gains reported for a search that expanded nothing: %v", plan.Attrs)
			}
			continue
		}
		seen++
		classes, est, got := plan.Attrs["expanded_class"].([]int), plan.Attrs["estimated_gain"].([]float64), plan.Attrs["observed_gain"].([]int)
		if len(classes) != r.Stats.ExpandedFragments || len(est) != len(classes) || len(got) != len(classes) {
			t.Fatalf("plan attrs %v for %d expanded fragments", plan.Attrs, r.Stats.ExpandedFragments)
		}
		removed := 0
		for j, g := range got {
			if g < 0 || est[j] < 0 || classes[j] < 0 || classes[j] >= len(fx.idx.Classes()) {
				t.Fatalf("implausible expansion %d: class %d estimated %v observed %d", j, classes[j], est[j], g)
			}
			removed += g
		}
		if want := r.Stats.StructCandidates - r.Stats.PrescreenRejects - r.Stats.RangeCandidates; removed != want {
			t.Fatalf("observed gains sum to %d, the range stage removed %d: %+v", removed, want, r.Stats)
		}
	}
	if seen == 0 {
		t.Fatal("no search expanded a fragment")
	}
}
