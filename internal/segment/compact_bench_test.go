package segment

import (
	"testing"

	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/index"
	"pis/internal/mining"
)

// BenchmarkCompact prices one compaction on the shape the benchmark's
// `mutating` workload compacts at (1,300 indexed molecules, a delta of 340,
// a tenth of both tombstoned; pis's default mining options). Every
// compaction is a merge (index.Rebase).
func BenchmarkCompact(b *testing.B) {
	const nBase, nDelta = 1300, 340
	all := chem.Generate(nBase+nDelta, chem.Config{Seed: 1})
	feats, err := mining.Mine(all[:nBase], mining.Options{MaxEdges: 5, MinEdges: 2, MinSupportFraction: 0.05, SampleSize: 300})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Index:           index.Options{Metric: distance.EdgeMutation{}},
		CompactFraction: -1,
	}
	first, err := New(all[:nBase], 0, feats, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// A fresh segment over the one prepared index, which a
			// compaction only reads.
			seg := fromIndex(first.base, first.ids, first.idx, cfg)
			for j, g := range all[nBase:] {
				if _, err := seg.Insert(g, int32(nBase+j)); err != nil {
					b.Fatal(err)
				}
			}
			for id := int32(0); id < nBase+nDelta; id += 10 {
				if ok, err := seg.Delete(id); !ok || err != nil {
					b.Fatal(ok, err)
				}
			}
			b.StartTimer()
			if err := seg.Compact(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if d := seg.Stats().Delta; d != 0 || len(seg.base) != (nBase+nDelta)/10*9 {
				b.Fatalf("compacted to %d graphs, delta %d", len(seg.base), d)
			}
		}
	})
}
