package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/iso"
	"pis/internal/mining"
)

// randomMolecule builds a sparse connected graph with skewed edge labels
// (single bonds dominate) so that distances behave like the AIDS data.
func randomMolecule(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n, n+3)
	for i := 0; i < n; i++ {
		b.AddVertex(0)
	}
	lab := func() graph.ELabel {
		r := rng.Intn(10)
		switch {
		case r < 7:
			return 0
		case r < 9:
			return 1
		default:
			return 2
		}
	}
	// Weights come from the endpoints, not from rng, so the labels a seed
	// gives do not depend on them; weight metrics get quarter steps.
	for i := 1; i < n; i++ {
		u := rng.Intn(i)
		b.AddWeightedEdge(int32(u), int32(i), lab(), float64((3*u+i)%8)/4)
	}
	return b.MustBuild()
}

type fixture struct {
	db  []*graph.Graph
	idx *index.Index
}

func newFixture(t testing.TB, seed int64, n int) fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := make([]*graph.Graph, n)
	for i := range db {
		db[i] = randomMolecule(rng, 7+rng.Intn(6))
	}
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 4, MinSupportFraction: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(db, feats, index.Options{Metric: distance.EdgeMutation{}})
	if err != nil {
		t.Fatal(err)
	}
	return fixture{db: db, idx: idx}
}

// sampleQuery extracts a connected m-edge subgraph from a database graph.
func sampleQuery(rng *rand.Rand, db []*graph.Graph, m int) *graph.Graph {
	for {
		g := db[rng.Intn(len(db))]
		edges := graph.RandomConnectedSubgraph(g, m, rng.Intn)
		if edges == nil {
			continue
		}
		sub, _, _ := graph.Fragment{Host: g, Edges: edges}.Extract()
		return sub
	}
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func subset(a, b []int32) bool {
	in := map[int32]bool{}
	for _, id := range b {
		in[id] = true
	}
	for _, id := range a {
		if !in[id] {
			return false
		}
	}
	return true
}

// TestAllMethodsAgree is the central soundness/completeness check: PIS and
// topoPrune must return exactly the naive answer set — the filters may
// only discard graphs that cannot be answers.
func TestAllMethodsAgree(t *testing.T) {
	fx := newFixture(t, 1, 40)
	s := NewSearcher(fx.db, fx.idx, Options{})
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 12; trial++ {
		q := sampleQuery(rng, fx.db, 4+rng.Intn(4))
		sigma := float64(rng.Intn(3))
		naive := s.SearchNaive(q, sigma)
		topo := s.SearchTopoPrune(q, sigma)
		pis := s.Search(q, sigma)
		if !equalIDs(naive.Answers, topo.Answers) {
			t.Fatalf("trial %d σ=%v: topoPrune answers %v != naive %v",
				trial, sigma, topo.Answers, naive.Answers)
		}
		if !equalIDs(naive.Answers, pis.Answers) {
			t.Fatalf("trial %d σ=%v: PIS answers %v != naive %v\n candidates=%v",
				trial, sigma, pis.Answers, naive.Answers, pis.Candidates)
		}
		// Filtering must never grow the candidate set.
		if !subset(pis.Candidates, topo.Candidates) {
			t.Fatalf("trial %d: PIS candidates not a subset of topoPrune's", trial)
		}
		if !subset(pis.Answers, pis.Candidates) {
			t.Fatalf("trial %d: answers escaped the candidate set", trial)
		}
	}
}

func TestPartitionLowerBoundProperty(t *testing.T) {
	// Eq. 2: for any vertex-disjoint set of query fragments, the sum of
	// fragment distances lower-bounds the query distance. Exercised via
	// random fragments and the exact distance oracle.
	fx := newFixture(t, 5, 15)
	metric := distance.EdgeMutation{}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		q := sampleQuery(rng, fx.db, 6)
		qfs := fx.idx.QueryFragments(q)
		if len(qfs) < 2 {
			continue
		}
		// Pick a random vertex-disjoint pair.
		var a, b index.QueryFragment
		found := false
		for i := 0; i < len(qfs) && !found; i++ {
			for j := i + 1; j < len(qfs); j++ {
				if !overlaps(qfs[i].Vertices, qfs[j].Vertices) {
					a, b, found = qfs[i], qfs[j], true
					break
				}
			}
		}
		if !found {
			continue
		}
		subA, _, _ := graph.Fragment{Host: q, Edges: a.Edges}.Extract()
		subB, _, _ := graph.Fragment{Host: q, Edges: b.Edges}.Extract()
		for _, g := range fx.db {
			dq := iso.MinSuperimposedDistance(q, g, metric, -1)
			if distance.IsInfinite(dq) {
				continue
			}
			da := iso.MinSuperimposedDistance(subA, g, metric, -1)
			db2 := iso.MinSuperimposedDistance(subB, g, metric, -1)
			if distance.IsInfinite(da) || distance.IsInfinite(db2) {
				t.Fatal("fragment missing from a graph containing the query")
			}
			if da+db2 > dq {
				t.Fatalf("lower bound violated: d(a)=%v + d(b)=%v > d(Q)=%v", da, db2, dq)
			}
		}
	}
}

// searchView and searchKNNView run the context forms of the pipeline
// under a background context, re-panicking a verification panic.
func searchView(s *Searcher, q *graph.Graph, sigma float64, view View) Result {
	r, err := s.SearchViewCtx(context.Background(), q, sigma, view)
	Rethrow(err)
	return r
}

func searchKNNView(s *Searcher, q *graph.Graph, k int, maxSigma float64, view View) []Neighbor {
	ns, _, err := s.SearchKNNViewCtx(context.Background(), q, k, maxSigma, view)
	Rethrow(err)
	return ns
}

func TestPISPrunesMoreWithSmallerSigma(t *testing.T) {
	fx := newFixture(t, 9, 60)
	s := NewSearcher(fx.db, fx.idx, Options{})
	rng := rand.New(rand.NewSource(10))
	totals := map[float64]int{}
	for trial := 0; trial < 15; trial++ {
		q := sampleQuery(rng, fx.db, 6)
		for _, sigma := range []float64{0, 2, 4} {
			totals[sigma] += s.CountCandidates(q, sigma).DistCandidates
		}
	}
	if !(totals[0] <= totals[2] && totals[2] <= totals[4]) {
		t.Errorf("candidate counts not monotone in σ: %v", totals)
	}
}

// TestPartitionStrategies checks the search's one partition strategy,
// Greedy (Algorithm 1); internal/partition checks it against the paper's
// alternatives.
func TestPartitionStrategies(t *testing.T) {
	fx := newFixture(t, 11, 30)
	rng := rand.New(rand.NewSource(12))
	q := sampleQuery(rng, fx.db, 7)
	// Cross over as late as the planner can: the prescreen thins this
	// small fixture below the cold-start crossover, and a search that
	// expands nothing has no partition to choose.
	s := NewSearcher(fx.db, fx.idx, Options{})
	pinExchangeRate(s, 1)
	r := s.Search(q, 2)
	naive := s.SearchNaive(q, 2)
	if !equalIDs(r.Answers, naive.Answers) {
		t.Error("the Greedy partition changed the answers")
	}
	if r.Stats.PartitionSize < 1 {
		t.Error("the Greedy partition is empty")
	}
}

// TestCountCandidates pins the filter-only entry: no prescreen, no
// verification, nothing learned, and the structural count is topoPrune's.
func TestCountCandidates(t *testing.T) {
	fx := newFixture(t, 13, 10)
	s := NewSearcher(fx.db, fx.idx, Options{})
	rng := rand.New(rand.NewSource(14))
	q := sampleQuery(rng, fx.db, 4)
	st := s.CountCandidates(q, 2)
	if st.PrescreenRejects != 0 || st.Verified != 0 || st.VerifyNodes != 0 {
		t.Errorf("a verification tier ran: %+v", st)
	}
	if got := s.LearnedSurvival(); len(got) != 0 || s.exchangeRate() != 0 || s.searches.Load() != 0 {
		t.Errorf("counting candidates taught the planner: %v", got)
	}
	if yt := s.SearchTopoPrune(q, 2).Stats.StructCandidates; st.StructCandidates != yt {
		t.Errorf("StructCandidates %d, topoPrune's %d", st.StructCandidates, yt)
	}
}

func TestStatsPopulated(t *testing.T) {
	fx := newFixture(t, 15, 25)
	s := NewSearcher(fx.db, fx.idx, Options{})
	rng := rand.New(rand.NewSource(16))
	r := s.Search(sampleQuery(rng, fx.db, 5), 2)
	st := r.Stats
	if st.QueryFragments == 0 || st.UsedFragments == 0 {
		t.Errorf("fragment stats empty: %+v", st)
	}
	if st.StructCandidates-st.PrescreenRejects < st.RangeCandidates || st.RangeCandidates < st.DistCandidates {
		t.Errorf("funnel not monotone: %+v", st)
	}
	if st.Verified+st.VerifyCacheHits != len(r.Candidates) {
		t.Errorf("verified %d + cached %d != candidates %d",
			st.Verified, st.VerifyCacheHits, len(r.Candidates))
	}
}

func TestLambdaZeroFallsBackToDefault(t *testing.T) {
	fx := newFixture(t, 17, 10)
	s := NewSearcher(fx.db, fx.idx, Options{Lambda: 0})
	if s.opts.Lambda != 1 {
		t.Errorf("lambda not defaulted: %v", s.opts.Lambda)
	}
}

// TestUsableClassesDropUniversal: the usable classes are exactly those of
// the per-fragment rule of Algorithm 2 line 5 at ε = 0, whose structure
// some graph lacks; with the planner off every one is materialized.
func TestUsableClassesDropUniversal(t *testing.T) {
	fx := newFixture(t, 21, 60)
	rng := rand.New(rand.NewSource(22))
	key := func(qf index.QueryFragment) string { return fmt.Sprint(qf.Class.ID, qf.Edges) }
	s := NewSearcher(fx.db, fx.idx, Options{PlannerOff: true})
	dropped := 0
	for trial := 0; trial < 30; trial++ {
		q := sampleQuery(rng, fx.db, 5+rng.Intn(5))
		var want []string
		all := fx.idx.QueryFragments(q)
		for _, qf := range all {
			if qf.Class.PostingCount() < len(fx.db) {
				want = append(want, key(qf))
			}
		}
		dropped += len(all) - len(want)
		sc := s.getScratch()
		var st Stats
		var got []string
		for _, sl := range s.queryClasses(q, &st, sc) {
			for _, qf := range sl.frags {
				got = append(got, key(qf))
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) || st.UsedFragments != len(want) || st.QueryFragments != len(all) {
			t.Fatalf("trial %d: used %d of %d fragments %v, want %v", trial, st.UsedFragments, st.QueryFragments, got, want)
		}
		s.putScratch(sc)
	}
	if dropped == 0 {
		t.Fatal("no query held a universal class: the drop went unchecked")
	}
}

// overlaps reports whether two ascending vertex-id lists share an element.
func overlaps(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}
