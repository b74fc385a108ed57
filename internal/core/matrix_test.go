package core

import (
	"math/rand"
	"testing"

	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/iso"
	"pis/internal/mining"
)

// buildWith builds a fixture with an arbitrary metric.
func buildWith(t *testing.T, seed int64, n int, metric distance.Metric) fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := make([]*graph.Graph, n)
	for i := range db {
		db[i] = randomMolecule(rng, 7+rng.Intn(5))
	}
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 3, MinSupportFraction: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(db, feats, index.Options{Metric: metric})
	if err != nil {
		t.Fatal(err)
	}
	return fixture{db: db, idx: idx}
}

// TestMatrixMetricAllKinds runs the metrics that price in fractions — a
// non-unit mutation score matrix, and the linear distance over weights —
// through the range scan: fractional costs exercise the budgeted walk with
// non-integer budgets, and PIS must agree with naive on answers and
// distances.
func TestMatrixMetricAllKinds(t *testing.T) {
	for _, m := range []distance.Metric{testMatrix(), distance.Linear{}} {
		fx := buildWith(t, 71, 25, m)
		s := NewSearcher(fx.db, fx.idx, Options{})
		rng := rand.New(rand.NewSource(72))
		for trial := 0; trial < 6; trial++ {
			q := sampleQuery(rng, fx.db, 4)
			sigma := []float64{0.5, 1.25, 2}[trial%3]
			pis := s.Search(q, sigma)
			naive := s.SearchNaive(q, sigma)
			if !equalIDs(pis.Answers, naive.Answers) || !equalF64(pis.Distances, naive.Distances) {
				t.Fatalf("%T trial %d σ=%v: PIS %v %v != naive %v %v",
					m, trial, sigma, pis.Answers, pis.Distances, naive.Answers, naive.Distances)
			}
		}
	}
}

// TestSigmaZeroIsExactLabeledContainment: σ=0 degenerates SSSD to exact
// labeled substructure search, and PIS must still be sound and complete.
func TestSigmaZeroIsExactLabeledContainment(t *testing.T) {
	fx := newFixture(t, 73, 30)
	s := NewSearcher(fx.db, fx.idx, Options{})
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 8; trial++ {
		q := sampleQuery(rng, fx.db, 5)
		pis := s.Search(q, 0)
		naive := s.SearchNaive(q, 0)
		if !equalIDs(pis.Answers, naive.Answers) {
			t.Fatalf("trial %d: σ=0 answers differ", trial)
		}
		// Every answer must contain q exactly (distance 0).
		for _, id := range pis.Answers {
			d := iso.MinSuperimposedDistance(q, fx.db[id], distance.EdgeMutation{}, 0)
			if d != 0 {
				t.Fatalf("trial %d: answer %d at distance %v under σ=0", trial, id, d)
			}
		}
	}
}

// TestAnswersDistancesConsistent: reported distances match the oracle.
func TestAnswersDistancesConsistent(t *testing.T) {
	fx := newFixture(t, 77, 20)
	s := NewSearcher(fx.db, fx.idx, Options{})
	rng := rand.New(rand.NewSource(78))
	q := sampleQuery(rng, fx.db, 5)
	r := s.Search(q, 3)
	if len(r.Distances) != len(r.Answers) {
		t.Fatalf("distances/answers length mismatch")
	}
	for i, id := range r.Answers {
		want := iso.MinSuperimposedDistance(q, fx.db[id], distance.EdgeMutation{}, -1)
		if r.Distances[i] != want {
			t.Fatalf("answer %d distance %v, oracle %v", id, r.Distances[i], want)
		}
	}
}

// TestQueryLargerThanEveryGraph: a query bigger than all database graphs
// has no answers and must not crash any method.
func TestQueryLargerThanEveryGraph(t *testing.T) {
	fx := newFixture(t, 79, 10)
	b := graph.NewBuilder(40, 39)
	for i := 0; i < 40; i++ {
		b.AddVertex(0)
	}
	for i := 0; i < 39; i++ {
		b.AddEdge(int32(i), int32(i+1), 0)
	}
	q := b.MustBuild()
	s := NewSearcher(fx.db, fx.idx, Options{})
	for _, r := range []Result{s.Search(q, 2), s.SearchTopoPrune(q, 2), s.SearchNaive(q, 2)} {
		if len(r.Answers) != 0 {
			t.Fatal("oversized query matched something")
		}
	}
}
