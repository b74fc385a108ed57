// Package gen generates synthetic molecule-like graph databases and query
// workloads compatible with pis. It is the public face of the generator
// used by this repository's benchmarks to stand in for the NCI/NIH AIDS
// antiviral screen dataset of the original paper (§7):
// carbon-dominated atoms, skewed bond types, fused ring systems, and a
// heavy-tailed size distribution averaging 25 vertices / 27 edges.
package gen

import (
	"pis"
	"pis/internal/chem"
)

// Config mirrors the generator knobs; the zero value reproduces the
// paper-scale molecule statistics.
type Config = chem.Config

// Atom labels assigned by the generator.
const (
	AtomC       = chem.AtomC
	AtomN       = chem.AtomN
	AtomO       = chem.AtomO
	AtomS       = chem.AtomS
	AtomP       = chem.AtomP
	AtomHalogen = chem.AtomHalogen
)

// Bond labels assigned by the generator.
const (
	BondSingle   = chem.BondSingle
	BondDouble   = chem.BondDouble
	BondAromatic = chem.BondAromatic
	BondTriple   = chem.BondTriple
)

// Molecules generates n synthetic molecules, deterministically per seed.
func Molecules(n int, cfg Config) []*pis.Graph { return chem.Generate(n, cfg) }

// Queries samples count connected query graphs of exactly m edges from the
// database, the paper's query workload.
func Queries(db []*pis.Graph, count, m int, seed int64) []*pis.Graph {
	return chem.SampleQueries(db, count, m, seed)
}

// Stats summarizes a database (sizes, label histograms).
type Stats = chem.Stats

// Summarize computes database statistics.
func Summarize(db []*pis.Graph) Stats { return chem.Summarize(db) }
