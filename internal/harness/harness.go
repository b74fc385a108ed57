// Package harness measures the PIS pipeline out of core: MeasureLarge
// streams a synthetic or SDF/SMILES database through the chunked build
// into an index file, opens it memory-mapped and times a query workload
// against it, and Measure reports that workload as a BenchReport, the
// row cmd/pisbench prints for LARGE.md.
//
// The paper's evaluation (§7, Figures 8-12, and its filter-timing claim)
// lives in this package's tests: go test ./internal/harness -run
// TestPaperFigures -v prints the six tables.
package harness

import (
	"time"

	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
)

// Config scales an experiment run.
type Config struct {
	DBSize  int   // number of database graphs (paper: 10,000)
	Seed    int64 // drives generation and query sampling
	Queries int   // queries per query set (default 120)

	// Index construction.
	MaxFragmentEdges   int     // paper sweeps 4-6 (Figure 12); default 5
	MinFragmentEdges   int     // smallest indexed structure; default 2
	MinSupportFraction float64 // feature min support; default 0.05
	MiningSample       int     // graphs mined for features; default 300
}

// normalized fills defaults.
func (c Config) normalized() Config {
	if c.DBSize <= 0 {
		c.DBSize = 2000
	}
	if c.Queries <= 0 {
		c.Queries = 120
	}
	if c.MaxFragmentEdges <= 0 {
		c.MaxFragmentEdges = 5
	}
	if c.MinFragmentEdges <= 0 {
		c.MinFragmentEdges = 2
	}
	if c.MinSupportFraction <= 0 {
		c.MinSupportFraction = 0.05
	}
	if c.MiningSample <= 0 {
		c.MiningSample = 300
	}
	return c
}

// Env is a built environment: database plus one index.
type Env struct {
	Config   Config
	DB       []*graph.Graph
	Features []mining.Feature
	Index    *index.Index
	BuildDur time.Duration
}
