package index

import (
	"os"
	"path/filepath"
	"testing"

	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/fsys"
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

// BenchmarkPair times what readies a saved index for searches: open the
// image, on the heap or mapped, then Pair, which lays out every class's
// bitmap from its entry runs. 5,000 generated molecules, features mined
// from the first 300 as the harness mines them.
func BenchmarkPair(b *testing.B) {
	metric := distance.EdgeMutation{}
	db := chem.Generate(5000, chem.Config{Seed: 1})
	feats, err := mining.Mine(db[:300], mining.Options{MaxEdges: 5, MinEdges: 2, MinSupportFraction: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	x, err := BuildParallel(db, feats, Options{Metric: metric}, 0)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "idx.pisidx3")
	if err := fsys.WriteFileAtomic(fsys.OS, filepath.Dir(path), filepath.Base(path), x.Save); err != nil {
		b.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	open := map[string]func() (*Index, error){
		"heap":   func() (*Index, error) { return LoadBytes(image, metric) },
		"mapped": func() (*Index, error) { return OpenMapped(path, metric) },
	}
	for _, name := range []string{"heap", "mapped"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				y, err := open[name]()
				if err == nil {
					err = y.Pair(db)
				}
				if err != nil {
					b.Fatal(err)
				}
				y.Close()
			}
		})
	}
}
