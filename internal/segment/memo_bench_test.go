package segment_test

import (
	"testing"

	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/index"
	"pis/internal/mining"
	"pis/internal/segment"
)

// BenchmarkSegmentRepeatSearch prices a repeated read after a write on the
// shape of the benchmark's `mutating` workload (1300 molecules, Q16 at
// σ=2, pis's default mining options): every iteration inserts one graph
// and searches. "hit" repeats one query, so its entry is brought up to
// date by verifying the one new graph; "cold" asks the same query at a
// radius no entry was stored under (distances are whole numbers, so the
// answers are the same), which is what every such read cost before the
// memo.
func BenchmarkSegmentRepeatSearch(b *testing.B) {
	const n = 1300
	all := chem.Generate(n+4096, chem.Config{Seed: 1})
	q := chem.SampleQueries(all[:n], 1, 16, 2)[0]
	feats, err := mining.Mine(all[:n], mining.Options{MaxEdges: 5, MinEdges: 2, MinSupportFraction: 0.05, SampleSize: 300})
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []string{"hit", "cold"} {
		b.Run(variant, func(b *testing.B) {
			seg, err := segment.New(all[:n], 0, feats, segment.Config{
				Index:           index.Options{Metric: distance.EdgeMutation{}},
				CompactFraction: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer seg.Close()
			want := len(search(seg, q, 2).Answers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := seg.Insert(all[n+i%4096], int32(n+i)); err != nil {
					b.Fatal(err)
				}
				sigma := 2.0
				if variant == "cold" {
					sigma += float64(i+1) * 1e-9
				}
				if r := search(seg, q, sigma); len(r.Answers) < want || (r.Stats.MemoHits == 1) != (variant == "hit") {
					b.Fatalf("iteration %d: %d answers (started at %d), stats %+v", i, len(r.Answers), want, r.Stats)
				}
			}
		})
	}
}
