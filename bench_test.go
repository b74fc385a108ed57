// Benchmarks regenerating every table/figure of the paper's evaluation
// (§7) plus per-stage micro-benchmarks of the PIS pipeline.
//
// Figure benches run the full harness experiment per iteration at a
// reduced scale (the default `go test -bench` budget would not fit the
// paper's 10,000-graph scale; use cmd/pisbench -n 10000 for that). The
// per-stage benches share one prebuilt environment.
package pis_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pis"
	"pis/gen"
	"pis/internal/core"
	"pis/internal/harness"
)

// benchConfig is the reduced scale for per-iteration figure regeneration.
func benchConfig() harness.Config {
	return harness.Config{DBSize: 400, Seed: 1, Queries: 40, MaxFragmentEdges: 4, MiningSample: 150}
}

var (
	benchEnvOnce sync.Once
	benchEnv     *harness.Env
)

func sharedEnv(b *testing.B) *harness.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		env, err := harness.BuildEnv(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchEnv = env
	})
	return benchEnv
}

// --- One benchmark per paper figure -----------------------------------

// BenchmarkFigure8 regenerates Figure 8 (candidate counts, Q16, σ=1,2,4).
func BenchmarkFigure8(b *testing.B) {
	env := sharedEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := harness.Figure8(env)
		if len(f.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9 (reduction ratio, Q16, σ=1,2,4).
func BenchmarkFigure9(b *testing.B) {
	env := sharedEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := harness.Figure9(env)
		if len(f.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10 (reduction ratio, Q24, σ=1,3,5).
func BenchmarkFigure10(b *testing.B) {
	env := sharedEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := harness.Figure10(env)
		if len(f.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure11 regenerates Figure 11 (cutoff sensitivity λ, σ=2).
func BenchmarkFigure11(b *testing.B) {
	env := sharedEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := harness.Figure11(env)
		if len(f.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure12 regenerates Figure 12 (pruning vs fragment size 4-6);
// it builds three indexes per iteration, so it is the slowest figure.
func BenchmarkFigure12(b *testing.B) {
	cfg := benchConfig()
	cfg.Queries = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := harness.Figure12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// --- Pipeline stage benchmarks -----------------------------------------

// BenchmarkPISFilterQ16 measures the PIS filtering stage per query (the
// paper's "< 1 s per query" claim, §7).
func BenchmarkPISFilterQ16(b *testing.B) {
	env := sharedEnv(b)
	qs := gen.Queries(env.DB, 64, 16, 7)
	s := core.NewSearcher(env.DB, env.Index, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CountCandidates(qs[i%len(qs)], 2)
	}
}

// BenchmarkTopoPruneQ16 measures the baseline: the structural filter
// and the verification of everything it leaves.
func BenchmarkTopoPruneQ16(b *testing.B) {
	env := sharedEnv(b)
	qs := gen.Queries(env.DB, 64, 16, 7)
	s := core.NewSearcher(env.DB, env.Index, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SearchTopoPrune(qs[i%len(qs)], 2)
	}
}

// BenchmarkVerifyQ16 measures full verification per query (what PIS's
// filtering avoids running on pruned graphs).
func BenchmarkVerifyQ16(b *testing.B) {
	env := sharedEnv(b)
	qs := gen.Queries(env.DB, 16, 16, 7)
	s := core.NewSearcher(env.DB, env.Index, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SearchNaive(qs[i%len(qs)], 2)
	}
}

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
