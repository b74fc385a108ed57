// Package harness measures the PIS pipeline at scale: MeasureLarge builds
// a durable store over a synthetic or SDF/SMILES database with
// pis.Create, reopens it with pis.Open (index memory-mapped) and times a
// query workload through the reopened Database, and Measure reports that
// workload as a BenchReport, the row cmd/pisbench prints for LARGE.md.
//
// The paper's evaluation (§7, Figures 8-12, and its filter-timing claim)
// lives in this package's tests: go test ./internal/harness -run
// TestPaperFigures -v prints the six tables.
package harness

// Config scales an experiment run.
type Config struct {
	DBSize  int   // number of database graphs (paper: 10,000)
	Seed    int64 // drives generation and query sampling
	Queries int   // queries per query set (default 120)

	// MaxFragmentEdges bounds the indexed structures (default 5; Figure 12
	// sweeps 4-6). MeasureLarge selects features by mining.Select.
	MaxFragmentEdges int
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
	return c
}
