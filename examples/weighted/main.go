// Weighted: linear mutation distance over numeric attributes.
//
// When graph attributes are numeric (bond lengths here), the paper's
// linear mutation distance LD = Σ|w - w'| replaces label mismatch counts
// (paper §4, Example 3). The metric is the only thing to choose: under it
// every structural equivalence class stores its fragments' weights
// instead of their labels.
//
// Run with: go run ./examples/weighted
package main

import (
	"fmt"
	"log"

	"pis"
	"pis/gen"
)

func main() {
	molecules := gen.Molecules(300, gen.Config{Seed: 21, Weighted: true})
	fmt.Printf("generated %d weighted molecules (bond lengths as edge weights)\n", len(molecules))

	db, err := pis.New(molecules, pis.Options{
		Metric: pis.LinearEdgeDistance, // Σ |w(e) − w'(e)| over the superposition
	})
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats().Index
	fmt.Printf("index: %d classes, %d fragment weight vectors\n\n", st.Features, st.Sequences)

	queries := gen.Queries(molecules, 5, 8, 77)
	// Bond lengths differ by ~0.03 Å noise per bond; an 8-edge query tree
	// within total drift 0.3 Å is a tight geometric match, 1.5 Å is loose.
	for _, sigma := range []float64{0.3, 0.8, 1.5} {
		total, candTopo, candPIS := 0, 0, 0
		for _, q := range queries {
			rn := db.SearchNaive(q, sigma)
			rp := db.Search(q, sigma)
			if len(rn.Answers) != len(rp.Answers) {
				log.Fatalf("σ=%g: PIS and the naive scan disagree", sigma)
			}
			total += len(rp.Answers)
			candTopo += rp.Stats.StructCandidates // what topoPrune would verify
			candPIS += len(rp.Candidates)
		}
		fmt.Printf("σ=%.1f Å: %3d answers | candidates: topo %4d, PIS %4d\n",
			sigma, total, candTopo, candPIS)
	}
	fmt.Println("\ntighter geometric thresholds prune harder — the σ range query")
	fmt.Println("shrinks with σ while structure-only filtering cannot.")
}
