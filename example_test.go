package pis_test

import (
	"context"
	"fmt"

	"pis"
)

// triangleWithTail builds a labeled triangle with a one-edge tail; the
// three edge labels of the ring are the parameters.
func triangleWithTail(a, b, c pis.ELabel) *pis.Graph {
	bld := pis.NewGraphBuilder(4, 4)
	for i := 0; i < 4; i++ {
		bld.AddVertex(0)
	}
	bld.AddEdge(0, 1, a)
	bld.AddEdge(1, 2, b)
	bld.AddEdge(0, 2, c)
	bld.AddEdge(2, 3, 1)
	g, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Example demonstrates the SSSD query of the paper: graph 0 matches the
// query exactly, graph 1 needs one edge relabeled, graph 2 needs two.
func Example() {
	graphs := []*pis.Graph{
		triangleWithTail(1, 1, 1),
		triangleWithTail(1, 1, 2),
		triangleWithTail(1, 2, 2),
	}
	db, err := pis.New(graphs, pis.Options{MaxFragmentEdges: 3})
	if err != nil {
		panic(err)
	}
	query := graphs[0]
	for _, sigma := range []float64{0, 1, 2} {
		r := db.Search(query, sigma)
		fmt.Printf("sigma=%g answers=%v\n", sigma, r.Answers)
	}
	// Output:
	// sigma=0 answers=[0]
	// sigma=1 answers=[0 1]
	// sigma=2 answers=[0 1 2]
}

// ExampleDatabase_SearchKNN finds the nearest graphs by superimposed
// distance instead of thresholding.
func ExampleDatabase_SearchKNN() {
	graphs := []*pis.Graph{
		triangleWithTail(1, 1, 1),
		triangleWithTail(1, 1, 2),
		triangleWithTail(2, 2, 2),
	}
	db, err := pis.New(graphs, pis.Options{MaxFragmentEdges: 3})
	if err != nil {
		panic(err)
	}
	for _, n := range db.SearchKNN(graphs[0], 2, 8) {
		fmt.Printf("graph %d at distance %g\n", n.ID, n.Distance)
	}
	// Output:
	// graph 0 at distance 0
	// graph 1 at distance 1
}

// ExampleDatabase_SearchTraced shows where a search's time went as a span
// tree. New and NewSharded return the same *Database and the same
// answers; only the tree's shape tells the shard counts apart: the
// stages hang off the root over one shard, under one child per shard
// (then the merge) over several.
func ExampleDatabase_SearchTraced() {
	graphs := []*pis.Graph{
		triangleWithTail(1, 1, 1),
		triangleWithTail(1, 1, 2),
		triangleWithTail(1, 2, 2),
		triangleWithTail(2, 2, 2),
	}
	opts := pis.Options{MaxFragmentEdges: 3}
	for _, shards := range []int{1, 2} {
		db, err := pis.NewSharded(graphs, shards, opts)
		if err != nil {
			panic(err)
		}
		r, span, err := db.SearchTraced(context.Background(), graphs[0], 1)
		if err != nil {
			panic(err)
		}
		fmt.Printf("shards=%d answers=%v %s:", db.NumShards(), r.Answers, span.Name)
		for _, child := range span.Children {
			fmt.Printf(" %s", child.Name)
		}
		fmt.Println()
	}
	// Output:
	// shards=1 answers=[0 1] search: plan filter verify
	// shards=2 answers=[0 1] search: shard-0 shard-1 merge
}
