package gen_test

import (
	"testing"

	"pis"
	"pis/gen"
)

func TestMoleculesThroughPublicAPI(t *testing.T) {
	molecules := gen.Molecules(100, gen.Config{Seed: 3})
	if len(molecules) != 100 {
		t.Fatalf("got %d molecules", len(molecules))
	}
	db, err := pis.New(molecules, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	qs := gen.Queries(molecules, 3, 8, 5)
	for _, q := range qs {
		r := db.Search(q, 1)
		if len(r.Answers) == 0 {
			t.Error("query sampled from the database found nothing")
		}
	}
}

func TestSummarize(t *testing.T) {
	molecules := gen.Molecules(300, gen.Config{Seed: 8})
	s := gen.Summarize(molecules)
	if s.Graphs != 300 {
		t.Fatalf("graphs = %d", s.Graphs)
	}
	if s.AtomCounts[gen.AtomC] == 0 {
		t.Error("no carbon atoms generated")
	}
	if s.BondCounts[gen.BondSingle] == 0 {
		t.Error("no single bonds generated")
	}
	if s.AvgVertices <= 0 || s.MaxVertices < int(s.AvgVertices) {
		t.Errorf("size stats inconsistent: %+v", s)
	}
}

func TestWeightedMolecules(t *testing.T) {
	molecules := gen.Molecules(30, gen.Config{Seed: 2, Weighted: true})
	db, err := pis.New(molecules, pis.Options{
		Metric: pis.LinearEdgeDistance,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := gen.Queries(molecules, 1, 6, 4)[0]
	r := db.Search(q, 0.5)
	naive := db.SearchNaive(q, 0.5)
	if len(r.Answers) != len(naive.Answers) {
		t.Fatalf("weighted search disagrees with naive: %d vs %d",
			len(r.Answers), len(naive.Answers))
	}
}
