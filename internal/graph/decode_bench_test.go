package graph_test

import (
	"testing"

	"pis/internal/chem"
	"pis/internal/graph"
)

// BenchmarkDecodeBinary decodes 5,000 encoded generated molecules in turn,
// one a op, so B/op is what one decoded graph holds on the heap: header,
// labels, edge records, adjacency, and weights where it has any.
func BenchmarkDecodeBinary(b *testing.B) {
	db := chem.Generate(5000, chem.Config{Seed: 1})
	enc := make([][]byte, len(db))
	for i, g := range db {
		enc[i] = g.AppendBinary(nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if _, _, err := graph.DecodeBinary(enc[i%len(enc)]); err != nil {
			b.Fatal(err)
		}
	}
}
