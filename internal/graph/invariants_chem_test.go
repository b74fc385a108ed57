package graph_test

import (
	"testing"

	"pis/internal/chem"
	"pis/internal/graph"
)

// BenchmarkGraphInvariants is the cost of annotating one graph on first
// use, over generated molecules: the whole size distribution, and its
// tail beyond 64 vertices apart. B/op is the annotation as allocated
// (one allocation, rounded up to its size class); annot-B/graph is what
// was asked for and budget-B/graph the 8 B/vertex + 1 B/edge + 32 B limit.
func BenchmarkGraphInvariants(b *testing.B) {
	db := chem.Generate(4000, chem.Config{Seed: 1})
	var tail []*graph.Graph
	for _, g := range db {
		if g.N() > 64 {
			tail = append(tail, g)
		}
	}
	if len(tail) < 16 {
		b.Fatalf("only %d molecules beyond 64 vertices", len(tail))
	}
	for _, set := range []struct {
		name   string
		graphs []*graph.Graph
	}{{"all", db}, {"over64", tail}} {
		b.Run(set.name, func(b *testing.B) {
			var bytes, budget int
			for _, g := range set.graphs {
				bytes += graph.ComputeInvariants(g)
				budget += 8*g.N() + g.M() + 32
			}
			n := float64(len(set.graphs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.ComputeInvariants(set.graphs[i%len(set.graphs)])
			}
			b.ReportMetric(float64(bytes)/n, "annot-B/graph")
			b.ReportMetric(float64(budget)/n, "budget-B/graph")
		})
	}
}

// TestInvariantsExactOnMolecules keeps the work budget honest: every
// generated molecule, the 200-vertex tail included, is annotated in full,
// so the fallback is for dense graphs only.
func TestInvariantsExactOnMolecules(t *testing.T) {
	for i, g := range chem.Generate(2000, chem.Config{Seed: 3}) {
		if !g.Invariants().Exact() {
			t.Fatalf("molecule %d (n=%d m=%d) ran out of budget", i, g.N(), g.M())
		}
	}
}
