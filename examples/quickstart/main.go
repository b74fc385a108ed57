// Quickstart: the paper's Example 1 in miniature.
//
// Three molecules share the query's ring-plus-tail structure, but their
// bond types differ. Searching with a mutation-distance threshold returns
// only the molecules whose best superposition mutates at most σ edge
// labels — the substructure-search-with-superimposed-distance (SSSD)
// problem that PIS solves.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pis"
)

// Bond types for this example.
const (
	single pis.ELabel = iota
	double
	aromatic
)

// fusedRing builds a 6-ring with a 2-edge tail; ringBonds labels the six
// ring edges, tailBonds the two tail edges.
func fusedRing(ringBonds [6]pis.ELabel, tailBonds [2]pis.ELabel) *pis.Graph {
	b := pis.NewGraphBuilder(8, 8)
	for i := 0; i < 8; i++ {
		b.AddVertex(0) // the paper's experiments ignore vertex labels
	}
	for i := 0; i < 6; i++ {
		b.AddEdge(int32(i), int32((i+1)%6), ringBonds[i])
	}
	b.AddEdge(0, 6, tailBonds[0])
	b.AddEdge(6, 7, tailBonds[1])
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return g
}

func main() {
	// The database: an exact match, a one-mutation neighbor, and a
	// three-mutation outlier (think 1H-Indene / Omephine / Digitoxigenin).
	molecules := []*pis.Graph{
		fusedRing([6]pis.ELabel{aromatic, aromatic, aromatic, aromatic, aromatic, aromatic},
			[2]pis.ELabel{single, double}),
		fusedRing([6]pis.ELabel{aromatic, aromatic, single, aromatic, aromatic, aromatic},
			[2]pis.ELabel{single, double}),
		fusedRing([6]pis.ELabel{single, single, single, aromatic, aromatic, aromatic},
			[2]pis.ELabel{single, single}),
	}
	names := []string{"exact match", "one mutated bond", "three mutated bonds"}

	// All three share one skeleton, so no indexed structure could exclude
	// any of them: the database selects no features and answers by its
	// prescreen and exact verification alone.
	db, err := pis.New(molecules, pis.Options{
		Metric:           pis.EdgeMutation, // count mismatched edge labels
		MaxFragmentEdges: 4,
	})
	if err != nil {
		log.Fatal(err)
	}

	query := molecules[0] // "find everything like the first molecule"
	for _, sigma := range []float64{0, 1, 2, 3} {
		r := db.Search(query, sigma)
		fmt.Printf("σ=%g: %d answer(s)\n", sigma, len(r.Answers))
		for _, id := range r.Answers {
			fmt.Printf("  graph %d (%s)\n", id, names[id])
		}
	}
	fmt.Println()
	r := db.Search(query, 1)
	fmt.Printf("stats at σ=1: %d candidates verified, %d answer(s)\n",
		len(r.Candidates), len(r.Answers))
}
