package index

import (
	"math/rand"
	"runtime"
	"testing"

	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/mining"
)

// TestParallelBuildIdenticalToSerial: same stats, same postings, same
// range-query results for every metric.
func TestParallelBuildIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := make([]*graph.Graph, 40)
	for i := range db {
		db[i] = randomMolecule(rng, 6+rng.Intn(5))
	}
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 3, MinSupportFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range metricCases {
		kind := tc.name
		opts := Options{Metric: tc.metric}
		serial, err := Build(db, feats, opts)
		if err != nil {
			t.Fatal(err)
		}
		par, err := BuildParallel(db, feats, opts, 4)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Stats() != par.Stats() {
			t.Fatalf("%v: stats differ: %+v vs %+v", kind, serial.Stats(), par.Stats())
		}
		for i, sc := range serial.Classes() {
			pc := par.Classes()[i]
			if sc.Key != pc.Key || len(sc.Postings()) != len(pc.Postings()) {
				t.Fatalf("%v: class %d differs", kind, i)
			}
			for j := range sc.Postings() {
				if sc.Postings()[j] != pc.Postings()[j] {
					t.Fatalf("%v: class %d postings differ", kind, i)
				}
			}
		}
		// Range queries answer identically.
		q := db[0]
		sf, pf := serial.QueryFragments(q), par.QueryFragments(q)
		if len(sf) != len(pf) {
			t.Fatalf("%v: query fragments differ", kind)
		}
		for i := range sf {
			a := serial.RangeQuery(sf[i], 2)
			b := par.RangeQuery(pf[i], 2)
			if len(a) != len(b) {
				t.Fatalf("%v: range query sizes differ", kind)
			}
			for id, d := range a {
				if b[id] != d {
					t.Fatalf("%v: range query values differ for graph %d", kind, id)
				}
			}
		}
	}
}

func TestParallelBuildSmallDBFallsBackToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	db := []*graph.Graph{randomMolecule(rng, 6), randomMolecule(rng, 7)}
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	x, err := BuildParallel(db, feats, Options{Metric: distance.EdgeMutation{}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if x.DBSize() != 2 {
		t.Fatalf("db size %d", x.DBSize())
	}
}

// TestParallelBuildAllocations: the worker pool recycles applied ops, so
// two workers allocate about what one does, not a molecule's ops afresh
// per graph.
func TestParallelBuildAllocations(t *testing.T) {
	db := chem.Generate(400, chem.Config{Seed: 1})
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 5, MinEdges: 2, MinSupportFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(workers int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := BuildParallel(db, feats, Options{Metric: distance.EdgeMutation{}}, workers); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	serial, parallel := allocated(1), allocated(2)
	if parallel > 3*serial {
		t.Fatalf("two workers allocate %d KiB, one %d KiB: more than 3x", parallel>>10, serial>>10)
	}
}
