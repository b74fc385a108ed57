// Benchmarks of the public API: index construction, one indexed search,
// and the query surface at one and three shards. The filter, verification
// and baseline stages have their own micro-benchmarks in internal/core
// (BenchmarkSearchPipeline); the paper's figures are tests in
// internal/harness (TestPaperFigures).
package pis_test

import (
	"context"
	"fmt"
	"testing"

	"pis"
	"pis/gen"
)

// BenchmarkIndexBuild measures fragment-index construction throughput.
func BenchmarkIndexBuild(b *testing.B) {
	molecules := gen.Molecules(100, gen.Config{Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pis.New(molecules, pis.Options{MaxFragmentEdges: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndSearch measures a complete indexed search including
// verification through the public API.
func BenchmarkEndToEndSearch(b *testing.B) {
	molecules := gen.Molecules(300, gen.Config{Seed: 5})
	db, err := pis.New(molecules, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		b.Fatal(err)
	}
	qs := gen.Queries(molecules, 32, 12, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Search(qs[i%len(qs)], 2)
	}
}

// BenchmarkQuerySurface times the public SearchContext over one corpus
// (n=1300, Q16, σ=2) at one shard — the direct call — and at three — the
// fan-out. distinct perturbs σ so every search runs the full pipeline;
// repeat cycles 64 warmed queries with no writes between them, so every
// search is a result-memo hit and what is left is the surface itself.
func BenchmarkQuerySurface(b *testing.B) {
	graphs := gen.Molecules(1300, gen.Config{Seed: 1})
	qs := gen.Queries(graphs, 64, 16, 2)
	ctx := context.Background()
	for _, shards := range []int{1, 3} {
		db, err := pis.NewSharded(graphs, shards, pis.Options{})
		if err != nil {
			b.Fatal(err)
		}
		distinct := 0 // σ perturbations spent, across the runs b.Run makes
		for _, variant := range []string{"distinct", "repeat"} {
			b.Run(fmt.Sprintf("%s/shards=%d", variant, shards), func(b *testing.B) {
				// Warm here: the distinct runs before may have evicted
				// these entries from the byte-bounded memo.
				for _, q := range qs {
					db.Search(q, 2)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sigma := 2.0
					if variant == "distinct" {
						distinct++
						sigma += float64(distinct) * 1e-9
					}
					r, err := db.SearchContext(ctx, qs[i%len(qs)], sigma)
					if err != nil || (r.Stats.MemoHits > 0) != (variant == "repeat") {
						b.Fatalf("iteration %d: err %v, stats %+v", i, err, r.Stats)
					}
				}
			})
		}
	}
}
