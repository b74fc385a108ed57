package index

import (
	"testing"

	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/mining"
)

// BenchmarkBuildSerialVsParallel quantifies the parallel build speedup.
func BenchmarkBuildSerial(b *testing.B) {
	db := chem.Generate(150, chem.Config{Seed: 2})
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 4, MinEdges: 2, MinSupportFraction: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(db, feats, Options{Metric: distance.EdgeMutation{}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildParallel(b *testing.B) {
	db := chem.Generate(150, chem.Config{Seed: 2})
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 4, MinEdges: 2, MinSupportFraction: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildParallel(db, feats, Options{Metric: distance.EdgeMutation{}}, 0); err != nil {
			b.Fatal(err)
		}
	}
}
