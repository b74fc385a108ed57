// Chemsearch: the paper's headline workload end to end.
//
// Generate a synthetic antiviral-screen-like database, sample 16-edge
// substructure queries from it, and compare PIS with a naive scan on
// answer agreement and wall-clock time, and with topoPrune
// (structure-only filtering, whose candidates are PIS's structural
// intersection, Stats.StructCandidates) on candidate counts.
//
// Run with: go run ./examples/chemsearch [-n 1000] [-queries 10]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"pis"
	"pis/gen"
)

func main() {
	var (
		n       = flag.Int("n", 1000, "database size")
		queries = flag.Int("queries", 8, "number of sampled queries")
		edges   = flag.Int("edges", 16, "query size in edges")
		sigma   = flag.Float64("sigma", 2, "distance threshold σ")
	)
	flag.Parse()

	fmt.Printf("generating %d molecules...\n", *n)
	molecules := gen.Molecules(*n, gen.Config{Seed: 11})
	s := gen.Summarize(molecules)
	fmt.Printf("  avg %.1f vertices / %.1f edges, max %d vertices\n",
		s.AvgVertices, s.AvgEdges, s.MaxVertices)

	start := time.Now()
	db, err := pis.New(molecules, pis.Options{})
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("indexed in %v: %d features, %d fragments, %d sequences\n\n",
		time.Since(start).Round(time.Millisecond), st.Features, st.Fragments, st.Sequences)

	qs := gen.Queries(molecules, *queries, *edges, 99)
	var naiveT, pisT time.Duration
	var topoCand, pisCand, answers int
	for i, q := range qs {
		t0 := time.Now()
		rn := db.SearchNaive(q, *sigma)
		naiveT += time.Since(t0)

		t0 = time.Now()
		rp := db.Search(q, *sigma)
		pisT += time.Since(t0)

		if len(rn.Answers) != len(rp.Answers) {
			log.Fatalf("query %d: methods disagree (naive %d, pis %d)", i, len(rn.Answers), len(rp.Answers))
		}
		topo := rp.Stats.StructCandidates
		topoCand += topo
		pisCand += len(rp.Candidates)
		answers += len(rp.Answers)
		fmt.Printf("query %2d: %4d answers | candidates: topo %5d, PIS %5d (%.1fx fewer)\n",
			i, len(rp.Answers), topo, len(rp.Candidates),
			float64(topo)/float64(max(1, len(rp.Candidates))))
	}

	fmt.Printf("\nPIS and the naive scan returned identical answers (%d total)\n", answers)
	fmt.Printf("avg candidates: topoPrune %.0f, PIS %.0f (reduction %.1fx)\n",
		float64(topoCand)/float64(len(qs)), float64(pisCand)/float64(len(qs)),
		float64(topoCand)/float64(max(1, pisCand)))
	fmt.Printf("total time: naive %v | PIS %v\n", naiveT.Round(time.Millisecond), pisT.Round(time.Millisecond))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
