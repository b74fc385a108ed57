package pis_test

import (
	"slices"
	"testing"

	"pis"
	"pis/gen"
)

// Regression for the index-kind knob: pis.New over weighted graphs with
// the default kind (label keys in a trie) or an R-tree (weight keys) used
// to be the caller's pairing to get right, and an R-tree under a label
// metric priced fragments by weight L1 — no lower bound of a label
// distance — so Search silently lost answers (it returned 1,219 of
// SearchNaive's 2,558 on this corpus at σ ∈ {0, 0.05}). The metric now
// decides what the index stores.

func metricKeyCases() map[string]pis.Metric {
	m := pis.NewMutationMatrix()
	m.SetEdgeScore(gen.BondSingle, gen.BondDouble, 0.5)
	m.SetEdgeScore(gen.BondSingle, gen.BondAromatic, 0.05)
	m.SetVertexScore(gen.AtomC, gen.AtomN, 0.75)
	return map[string]pis.Metric{
		"EdgeMutation":       pis.EdgeMutation,
		"FullMutation":       pis.FullMutation,
		"Matrix":             m,
		"LinearEdgeDistance": pis.LinearEdgeDistance,
	}
}

// TestEveryMetricSearchesExactly: on the weighted molecule corpus Search
// returns SearchNaive's answers and distances under every exported metric,
// from a heap index and from a mapped one.
func TestEveryMetricSearchesExactly(t *testing.T) {
	molecules := gen.Molecules(300, gen.Config{Seed: 2, Weighted: true})
	queries := gen.Queries(molecules, 20, 8, 4)
	for name, metric := range metricKeyCases() {
		for _, mapped := range []bool{false, true} {
			db, err := pis.New(molecules, pis.Options{Metric: metric, MappedIndex: mapped})
			if err != nil {
				t.Fatal(err)
			}
			answers := 0
			for _, sigma := range []float64{0, 0.05, 1} {
				for qi, q := range queries {
					got, want := db.Search(q, sigma), db.SearchNaive(q, sigma)
					if !slices.Equal(got.Answers, want.Answers) || !slices.Equal(got.Distances, want.Distances) {
						t.Fatalf("%s mapped=%v σ=%v query %d: Search %v %v, SearchNaive %v %v",
							name, mapped, sigma, qi, got.Answers, got.Distances, want.Answers, want.Distances)
					}
					answers += len(want.Answers)
				}
			}
			if answers < 3*len(queries) {
				t.Fatalf("%s mapped=%v: only %d answers compared", name, mapped, answers)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLinearDistancePrunesByDefault: with nothing but the metric set, the
// σ range queries of a weight metric cut candidates. The default kind used
// to store labels, under which a weight metric prices every stored
// fragment at distance 0 and the range queries remove nothing. (The
// planner is off so that every range query runs whatever the clock says.)
func TestLinearDistancePrunesByDefault(t *testing.T) {
	molecules := gen.Molecules(300, gen.Config{Seed: 2, Weighted: true})
	db, err := pis.New(molecules, pis.Options{Metric: pis.LinearEdgeDistance, PlannerOff: true})
	if err != nil {
		t.Fatal(err)
	}
	before, after, topo := 0, 0, 0
	for _, q := range gen.Queries(molecules, 20, 8, 4) {
		r := db.Search(q, 0.3)
		before += r.Stats.StructCandidates - r.Stats.PrescreenRejects
		after += r.Stats.RangeCandidates
		topo += r.Stats.StructCandidates // the intersection topoPrune verifies
	}
	if after >= before || after >= topo {
		t.Fatalf("σ=0.3: %d candidates entered the range queries, %d left them (topoPrune keeps %d): they pruned nothing", before, after, topo)
	}
}

// TestStoreRejectsMetricOfOtherKeyType: a store written under a label
// metric opened under a weight metric (and the reverse) is an error, heap
// and mapped, not answers priced on the wrong element.
func TestStoreRejectsMetricOfOtherKeyType(t *testing.T) {
	molecules := gen.Molecules(40, gen.Config{Seed: 2, Weighted: true})
	for _, tc := range []struct {
		name            string
		written, opened pis.Metric
	}{
		{"labels opened with LinearEdgeDistance", pis.EdgeMutation, pis.LinearEdgeDistance},
		{"weights opened with EdgeMutation", pis.LinearEdgeDistance, pis.EdgeMutation},
	} {
		dir := t.TempDir()
		db, err := pis.Create(dir, molecules, pis.Options{Metric: tc.written})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for _, mapped := range []bool{false, true} {
			if db, err := pis.Open(dir, pis.Options{Metric: tc.opened, MappedIndex: mapped}); err == nil {
				db.Close()
				t.Errorf("%s, mapped=%v: Open succeeded", tc.name, mapped)
			}
		}
		db, err = pis.Open(dir, pis.Options{Metric: tc.written})
		if err != nil {
			t.Fatalf("%s: the store no longer opens under its own metric: %v", tc.name, err)
		}
		db.Close()
	}
}
