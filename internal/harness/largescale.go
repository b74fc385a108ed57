// Large-scale benchmark path. MeasureLarge builds a durable store with
// pis.Create — over the synthetic molecules or a real SDF/SMILES corpus —
// closes it, reopens it with pis.Open, the index memory-mapped, and
// measures the standard workload through the reopened Database: the store
// `pisserved -data-dir` opens, searched the way it searches. The queries
// are sampled before the build, so the graph slice the build took can be
// dropped before the reopen.

package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"pis"
	"pis/internal/chem"
	"pis/internal/graph"
)

// LargeOptions configures MeasureLarge beyond the shared Config.
type LargeOptions struct {
	// Corpus is an SDF (.sdf/.sd/.mol) or SMILES (.smi/.smiles/.txt)
	// file to index instead of Config.DBSize synthetic molecules.
	Corpus string
	// DataDir keeps the store at this directory, which must not hold one
	// yet; "" builds it in a temporary directory removed when the
	// measurement finishes.
	DataDir string
}

// MeasureLarge creates the store, reopens it mapped, and measures.
func MeasureLarge(cfg Config, queryEdges int, sigma float64, lo LargeOptions) (BenchReport, error) {
	cfg = cfg.normalized()
	var graphs []*graph.Graph
	if lo.Corpus != "" {
		all, err := scanCorpus(lo.Corpus)
		if err != nil {
			return BenchReport{}, err
		}
		if len(all) == 0 {
			return BenchReport{}, fmt.Errorf("corpus %s holds no molecules", lo.Corpus)
		}
		graphs, cfg.DBSize = all, len(all)
	} else {
		graphs = chem.Generate(cfg.DBSize, chem.Config{Seed: cfg.Seed})
	}
	// SampleQueries retries until it has enough queries, so a size above
	// the largest graph would spin forever.
	maxM := 0
	for _, g := range graphs {
		maxM = max(maxM, g.M())
	}
	queryEdges = min(queryEdges, maxM)
	qs := chem.SampleQueries(graphs, cfg.Queries, queryEdges, cfg.Seed+7)

	dir := lo.DataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "pis-large-*")
		if err != nil {
			return BenchReport{}, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	start := time.Now()
	db, err := pis.Create(dir, graphs, pis.Options{MaxFragmentEdges: cfg.MaxFragmentEdges})
	if err != nil {
		return BenchReport{}, err
	}
	buildDur, buildPeak := time.Since(start), peakRSSMB()
	if err := db.Close(); err != nil {
		return BenchReport{}, err
	}
	// The reopened store decodes graphs of its own. Returning the build's
	// heap first starts the query phase where a fresh process opening the
	// store starts; the high-water mark keeps the build's peak either way.
	graphs, db = nil, nil
	debug.FreeOSMemory()

	start = time.Now()
	db, err = pis.Open(dir, pis.Options{MappedIndex: true})
	if err != nil {
		return BenchReport{}, err
	}
	defer db.Close()
	openDur := time.Since(start)

	rep := Measure(db, qs, sigma)
	rep.DBSize, rep.Seed, rep.QueryEdges, rep.MaxFragmentEdges = cfg.DBSize, cfg.Seed, queryEdges, cfg.MaxFragmentEdges
	rep.BuildMS, rep.BuildPeakRSSMB, rep.OpenMS = ms(buildDur), buildPeak, ms(openDur)
	images, _ := filepath.Glob(filepath.Join(dir, "*", "idx-*.pisidx3"))
	for _, path := range images {
		if fi, err := os.Stat(path); err == nil {
			rep.IndexBytes += int(fi.Size())
		}
	}
	return rep, nil
}

// openCorpus picks the parser by file extension and returns its reader,
// one molecule a call and io.EOF at the end.
func openCorpus(path string) (func() (*graph.Graph, error), io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".sdf", ".sd", ".mol":
		return chem.NewSDFReader(f, path).Next, f, nil
	case ".smi", ".smiles", ".txt":
		return chem.NewSMILESReader(f, path).Next, f, nil
	}
	f.Close()
	return nil, nil, fmt.Errorf("corpus %s: unknown extension (want .sdf/.sd/.mol or .smi/.smiles/.txt)", path)
}

// scanCorpus reads every molecule of the corpus.
func scanCorpus(path string) ([]*graph.Graph, error) {
	next, closer, err := openCorpus(path)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	var graphs []*graph.Graph
	for {
		g, err := next()
		if err == io.EOF {
			return graphs, nil
		}
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, g)
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MiB. Returns 0 where /proc is unavailable; the report fields then read
// as absent.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(data), "\n") {
		v, ok := strings.CutPrefix(ln, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(v)
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
