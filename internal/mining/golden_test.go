package mining

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pis/internal/chem"
	"pis/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current miner")

// benchSample is the mining sample of the bench corpus: the first 300 of
// the 3,000 molecules gen.Molecules writes at seed 1.
func benchSample() []*graph.Graph {
	return chem.Generate(3000, chem.Config{Seed: 1})[:300]
}

// TestFeatureSetGolden pins the features mined from the bench sample —
// keys, codes, supports and order — at the sizes the database mines (Mine,
// 5 edges) and above it, skeletons and labeled. A change to the miner
// must reproduce these files byte for byte; -update rewrites them.
func TestFeatureSetGolden(t *testing.T) {
	sample := benchSample()
	minSupport := 15 // 0.05 of 300, the database's default threshold
	cases := []struct {
		name  string
		feats func() []Feature
	}{
		{"mine-5", func() []Feature { return mineSample(t, sample) }},
		{"gspan-6", func() []Feature {
			return GSpan(sample, GSpanOptions{MinSupport: minSupport, MaxEdges: 6, Skeleton: true})
		}},
		{"gspan-7", func() []Feature {
			return GSpan(sample, GSpanOptions{MinSupport: minSupport, MaxEdges: 7, Skeleton: true})
		}},
		{"gspan-labeled-5", func() []Feature {
			return GSpan(sample, GSpanOptions{MinSupport: minSupport, MaxEdges: 5, Skeleton: false})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			feats := c.feats()
			var b strings.Builder
			for _, f := range feats {
				if f.Edges != len(f.Code) || f.Key != f.Code.Key() || f.Graph.M() != f.Edges {
					t.Fatalf("feature %v: Edges %d, Key, Graph disagree with its code", f.Code, f.Edges)
				}
				fmt.Fprintf(&b, "%d %d %x %v\n", f.Edges, f.Support, f.Key, f.Code)
			}
			path := filepath.Join("testdata", c.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := range min(len(gl), len(wl)) {
					if gl[i] != wl[i] {
						t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}

// mineSample mines the bench sample as a database does at creation.
func mineSample(tb testing.TB, sample []*graph.Graph) []Feature {
	feats, err := Mine(sample, Options{MaxEdges: 5, MinEdges: 2, MinSupportFraction: 0.05, SampleSize: 300})
	if err != nil {
		tb.Fatal(err)
	}
	return feats
}

// TestMineAllocs guards the miner's allocation count on the bench sample:
// embeddings live in flat slabs and placing one in its host reuses
// scratch, so what allocates is per pattern and per candidate extension
// (codes, keys, the minimality test), a few thousand objects, where
// allocating per embedding costs millions.
func TestMineAllocs(t *testing.T) {
	sample := benchSample()
	allocs := testing.AllocsPerRun(3, func() { mineSample(t, sample) })
	t.Logf("Mine: %.0f allocations", allocs)
	if allocs > 50_000 {
		t.Fatalf("Mine made %.0f allocations on the bench sample, want at most 50,000", allocs)
	}
}

func BenchmarkMine(b *testing.B) {
	sample := benchSample()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mineSample(b, sample)
	}
}
