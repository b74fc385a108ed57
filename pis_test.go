package pis_test

import (
	"bytes"
	"runtime"
	"testing"

	"pis"
	"pis/internal/chem"
)

// buildPublicDB assembles a small database through the public API only.
func buildPublicDB(t *testing.T, n int, opts pis.Options) (*pis.Database, []*pis.Graph) {
	t.Helper()
	graphs := chem.Generate(n, chem.Config{Seed: 7})
	db, err := pis.New(graphs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, graphs
}

func TestPublicAPIEndToEnd(t *testing.T) {
	db, graphs := buildPublicDB(t, 120, pis.Options{})
	if db.Len() != len(graphs) {
		t.Fatalf("Len = %d", db.Len())
	}
	queries := chem.SampleQueries(graphs, 5, 10, 3)
	for _, q := range queries {
		pisRes := db.Search(q, 2)
		naive := db.SearchNaive(q, 2)
		if len(pisRes.Answers) != len(naive.Answers) {
			t.Fatalf("methods disagree: pis=%d naive=%d", len(pisRes.Answers), len(naive.Answers))
		}
		for i := range naive.Answers {
			if pisRes.Answers[i] != naive.Answers[i] {
				t.Fatal("PIS answer ids differ from naive")
			}
		}
		// The query was cut from the database, so it must match its source
		// graph at distance 0 — answers are never empty at σ >= 0.
		if len(naive.Answers) == 0 {
			t.Fatal("sampled query has no answers")
		}
		// StructCandidates is the structural intersection topoPrune
		// verifies.
		if len(pisRes.Candidates) > pisRes.Stats.StructCandidates {
			t.Fatal("PIS kept more candidates than topoPrune")
		}
	}
}

func TestPublicAPIGraphBuilder(t *testing.T) {
	// The paper's Example 1 in miniature: a ring with one mutated bond is
	// within distance 1 of the query ring, a ring with three mutated bonds
	// is not (σ=2).
	ring := func(labels [6]pis.ELabel) *pis.Graph {
		b := pis.NewGraphBuilder(6, 6)
		for i := 0; i < 6; i++ {
			b.AddVertex(0)
		}
		for i := 0; i < 6; i++ {
			b.AddEdge(int32(i), int32((i+1)%6), labels[i])
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	target := ring([6]pis.ELabel{1, 1, 1, 1, 1, 1})
	oneOff := ring([6]pis.ELabel{1, 1, 2, 1, 1, 1})
	threeOff := ring([6]pis.ELabel{2, 2, 2, 1, 1, 1})
	db, err := pis.New([]*pis.Graph{target, oneOff, threeOff}, pis.Options{
		MinSupportFraction: 0.01,
		MaxFragmentEdges:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := db.SearchNaive(target, 2)
	if len(r.Answers) != 2 || r.Answers[0] != 0 || r.Answers[1] != 1 {
		t.Fatalf("answers = %v, want [0 1]", r.Answers)
	}
	r2 := db.Search(target, 2)
	if len(r2.Answers) != 2 {
		t.Fatalf("PIS answers = %v, want 2 graphs", r2.Answers)
	}
}

func TestPublicAPIValidation(t *testing.T) {
	if _, err := pis.New(nil, pis.Options{}); err == nil {
		t.Error("empty database accepted")
	}
	graphs := chem.Generate(5, chem.Config{Seed: 1})
	if _, err := pis.New(graphs, pis.Options{MinSupportFraction: 1.01}); err == nil {
		t.Error("impossible support threshold produced a database")
	}
}

func TestPublicAPICodecRoundTrip(t *testing.T) {
	graphs := chem.Generate(10, chem.Config{Seed: 2})
	var buf bytes.Buffer
	if err := pis.WriteDatabase(&buf, graphs); err != nil {
		t.Fatal(err)
	}
	back, err := pis.ReadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(graphs) {
		t.Fatalf("round trip returned %d graphs", len(back))
	}
}

func TestPublicAPIStats(t *testing.T) {
	db, graphs := buildPublicDB(t, 80, clusterTestOpts)
	st := db.Stats()
	if st.Features == 0 || st.Fragments == 0 || st.Sequences == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	// One bit per feature per graph in whole words (80 graphs: two), and
	// one 120-byte fingerprint per graph — resident whether the index is on
	// the heap, mapped, or behind a cluster node's RPC.
	if st.BitmapBytes != st.Features*16 || st.FingerprintBytes != 80*120 {
		t.Fatalf("%d features over 80 graphs: %d bitmap bytes, %d fingerprint bytes", st.Features, st.BitmapBytes, st.FingerprintBytes)
	}
	mopts := clusterTestOpts
	mopts.MappedIndex = true
	mapped, _ := buildPublicDB(t, 80, mopts)
	defer mapped.Close()
	if got := mapped.Stats(); got != st {
		t.Fatalf("mapped stats %+v, heap %+v", got, st)
	}
	cn := startTestCluster(t, clusterAddrs(t, 1), 1, 1, nil, graphs)[0]
	if got := cn.Stats(); got != st {
		t.Fatalf("cluster node stats %+v, database %+v", got, st)
	}
}

func TestPublicAPIMutationMatrix(t *testing.T) {
	m := pis.NewMutationMatrix()
	m.SetEdgeScore(1, 2, 0.5) // single<->double bond mutation is cheap
	graphs := chem.Generate(60, chem.Config{Seed: 9})
	db, err := pis.New(graphs, pis.Options{Metric: m})
	if err != nil {
		t.Fatal(err)
	}
	q := chem.SampleQueries(graphs, 1, 8, 5)[0]
	r := db.Search(q, 1)
	naive := db.SearchNaive(q, 1)
	if len(r.Answers) != len(naive.Answers) {
		t.Fatalf("matrix metric: PIS %d answers, naive %d", len(r.Answers), len(naive.Answers))
	}
}

func TestPublicAPISearchKNN(t *testing.T) {
	db, graphs := buildPublicDB(t, 100, pis.Options{MaxFragmentEdges: 4})
	q := chem.SampleQueries(graphs, 1, 8, 41)[0]
	ns := db.SearchKNN(q, 5, 8)
	if len(ns) == 0 {
		t.Fatal("kNN found nothing for an in-database query")
	}
	if ns[0].Distance != 0 {
		t.Errorf("nearest neighbor distance = %v, want 0", ns[0].Distance)
	}
	for i := 1; i < len(ns); i++ {
		if ns[i].Distance < ns[i-1].Distance {
			t.Fatal("kNN results not sorted")
		}
	}
}

func TestPublicAPISearchBatch(t *testing.T) {
	db, graphs := buildPublicDB(t, 120, pis.Options{MaxFragmentEdges: 4})
	qs := chem.SampleQueries(graphs, 12, 10, 43)
	batch := db.SearchBatch(qs, 2, 4)
	if len(batch) != len(qs) {
		t.Fatalf("batch returned %d results", len(batch))
	}
	for i, q := range qs {
		single := db.Search(q, 2)
		if len(batch[i].Answers) != len(single.Answers) {
			t.Fatalf("query %d: batch %d answers, single %d",
				i, len(batch[i].Answers), len(single.Answers))
		}
		for j := range single.Answers {
			if batch[i].Answers[j] != single.Answers[j] {
				t.Fatalf("query %d: batch answers differ", i)
			}
		}
	}
}

// TestPublicAPIParallelBuildMatchesSerial: a build runs on GOMAXPROCS
// workers, and one worker gives the same index.
func TestPublicAPIParallelBuildMatchesSerial(t *testing.T) {
	graphs := chem.Generate(80, chem.Config{Seed: 77})
	procs := runtime.GOMAXPROCS(1)
	serial, err := pis.New(graphs, pis.Options{MaxFragmentEdges: 4})
	runtime.GOMAXPROCS(max(procs, 4))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := pis.New(graphs, pis.Options{MaxFragmentEdges: 4})
	runtime.GOMAXPROCS(procs)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Stats() != parallel.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", serial.Stats(), parallel.Stats())
	}
	q := chem.SampleQueries(graphs, 1, 10, 3)[0]
	a, b := serial.Search(q, 2), parallel.Search(q, 2)
	if len(a.Answers) != len(b.Answers) {
		t.Fatal("parallel-built index answers differently")
	}
}

func TestPublicAPIResultDistances(t *testing.T) {
	db, graphs := buildPublicDB(t, 60, pis.Options{MaxFragmentEdges: 4})
	q := chem.SampleQueries(graphs, 1, 8, 21)[0]
	r := db.Search(q, 3)
	if len(r.Distances) != len(r.Answers) {
		t.Fatalf("distances %d, answers %d", len(r.Distances), len(r.Answers))
	}
	for _, d := range r.Distances {
		if d < 0 || d > 3 {
			t.Fatalf("answer distance %v outside [0, σ]", d)
		}
	}
}
