// Large-scale (out-of-core) benchmark path. MeasureLarge builds a v3
// index file with index.BuildStreaming — over the synthetic molecule
// stream or a real SDF/SMILES corpus — opens it memory-mapped, and runs
// the standard Measure workload against the mapped index. It reports
// the same BenchReport the in-heap path writes, plus the out-of-core
// profile: streaming-build peak RSS, raw posting volume (the heap bytes
// the build avoided holding), and the chunk runs it wrote. Database
// graphs are materialized only after the build finishes, so the recorded
// build peak is the chunked build's true working set.

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

	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
)

// LargeOptions configures MeasureLarge beyond the shared Config.
type LargeOptions struct {
	// Corpus is an SDF (.sdf/.sd/.mol) or SMILES (.smi/.smiles/.txt)
	// file to index instead of the synthetic stream; "" streams
	// Config.DBSize synthetic molecules.
	Corpus string
	// IndexPath keeps the built v3 file at this path; "" uses a
	// temporary file removed when the measurement finishes.
	IndexPath string
	// BuildMemLimitBytes applies a Go soft memory limit for the duration
	// of the streaming build only (restored before the query phase, which
	// legitimately materializes the database for verification). The build
	// sizes its chunks by it, and with the limit in place an accidental
	// whole-database materialization thrashes the GC and shows up as a
	// blown build time instead of a silently bigger RSS. 0 leaves the
	// runtime default.
	BuildMemLimitBytes int64
}

// MeasureLarge builds out-of-core, opens mapped, and measures.
func MeasureLarge(cfg Config, queryEdges int, sigma float64, lo LargeOptions) (BenchReport, error) {
	cfg = cfg.normalized()

	// Mining sample: the stream's prefix. Mining needs a representative
	// subset, never the whole database.
	var sample []*graph.Graph
	if lo.Corpus != "" {
		n, s, err := scanCorpus(lo.Corpus, cfg.MiningSample)
		if err != nil {
			return BenchReport{}, err
		}
		if n == 0 {
			return BenchReport{}, fmt.Errorf("corpus %s holds no molecules", lo.Corpus)
		}
		cfg.DBSize, sample = n, s
	} else {
		sample = chem.Generate(min(cfg.MiningSample, cfg.DBSize), chem.Config{Seed: cfg.Seed})
	}
	feats, err := mining.Mine(sample, mining.Options{
		MaxEdges:           cfg.MaxFragmentEdges,
		MinEdges:           cfg.MinFragmentEdges,
		MinSupportFraction: cfg.MinSupportFraction,
		SampleSize:         len(sample),
	})
	if err != nil {
		return BenchReport{}, err
	}

	idxPath := lo.IndexPath
	if idxPath == "" {
		f, err := os.CreateTemp("", "pis-large-*.pisidx3")
		if err != nil {
			return BenchReport{}, err
		}
		idxPath = f.Name()
		f.Close()
		defer os.Remove(idxPath)
	}

	src, stop, err := buildSource(cfg, lo)
	if err != nil {
		return BenchReport{}, err
	}
	restoreMemLimit := func() {}
	if lo.BuildMemLimitBytes > 0 {
		prev := debug.SetMemoryLimit(lo.BuildMemLimitBytes)
		restoreMemLimit = func() { debug.SetMemoryLimit(prev) }
	}
	start := time.Now()
	sres, err := index.BuildStreaming(src, cfg.DBSize, feats, index.Options{Metric: distance.EdgeMutation{}}, idxPath)
	buildDur := time.Since(start)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return BenchReport{}, fmt.Errorf("streaming build: %w", err)
	}
	// Snapshot the high-water mark now, before query-side work
	// (materialized graphs, heap index loads) moves it: this is the
	// chunked build's peak, the number the build-RSS invariants of
	// pisbench are about. The build memory limit lifts only
	// after the snapshot.
	buildPeak := peakRSSMB()
	restoreMemLimit()

	idx, err := index.OpenMapped(idxPath, distance.EdgeMutation{})
	if err != nil {
		return BenchReport{}, err
	}
	defer idx.Close()

	// Verification needs the graphs themselves; only now do they enter
	// the heap.
	var db []*graph.Graph
	if lo.Corpus != "" {
		if db, err = loadCorpus(lo.Corpus); err != nil {
			return BenchReport{}, err
		}
	} else {
		db = chem.Generate(cfg.DBSize, chem.Config{Seed: cfg.Seed})
	}

	env := &Env{Config: cfg, DB: db, Features: feats, Index: idx, BuildDur: buildDur}
	rep := Measure(env, queryEdges, sigma)
	rep.BuildPeakRSSMB = buildPeak
	rep.RawPostingBytes = sres.RawPostingBytes
	rep.StreamSpillRuns = sres.SpillRuns
	rep.StreamSpillBytes = sres.SpillBytes
	return rep, nil
}

// buildSource returns the graph stream for the build pass and a stop
// function reporting any parse error that ended a corpus stream early.
func buildSource(cfg Config, lo LargeOptions) (index.GraphSource, func() error, error) {
	if lo.Corpus == "" {
		s := &limitedSource{src: chem.NewStream(chem.Config{Seed: cfg.Seed}), left: cfg.DBSize}
		return s, func() error { return nil }, nil
	}
	gs, closer, err := openCorpus(lo.Corpus)
	if err != nil {
		return nil, nil, err
	}
	cs := &corpusSource{s: gs}
	return cs, func() error {
		closer.Close()
		return cs.err
	}, nil
}

// limitedSource truncates an infinite stream to exactly n graphs, the
// contract BuildStreaming checks.
type limitedSource struct {
	src  index.GraphSource
	left int
}

func (l *limitedSource) Next() (*graph.Graph, bool) {
	if l.left <= 0 {
		return nil, false
	}
	l.left--
	return l.src.Next()
}

// graphStream is the chem readers' shape: one molecule per call, io.EOF
// at the end.
type graphStream interface {
	Next() (*graph.Graph, error)
}

// corpusSource adapts a parse stream to index.GraphSource. A parse
// error ends the stream; the caller surfaces it via the stop function
// (BuildStreaming itself only sees a short source).
type corpusSource struct {
	s   graphStream
	err error
}

func (c *corpusSource) Next() (*graph.Graph, bool) {
	g, err := c.s.Next()
	if err != nil {
		if err != io.EOF {
			c.err = err
		}
		return nil, false
	}
	return g, true
}

// openCorpus picks the parser by file extension.
func openCorpus(path string) (graphStream, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".sdf", ".sd", ".mol":
		return chem.NewSDFReader(f, path), f, nil
	case ".smi", ".smiles", ".txt":
		return chem.NewSMILESReader(f, path), f, nil
	}
	f.Close()
	return nil, nil, fmt.Errorf("corpus %s: unknown extension (want .sdf/.sd/.mol or .smi/.smiles/.txt)", path)
}

// scanCorpus counts the corpus and keeps its first sampleCap molecules
// for feature mining, without materializing the rest.
func scanCorpus(path string, sampleCap int) (int, []*graph.Graph, error) {
	gs, closer, err := openCorpus(path)
	if err != nil {
		return 0, nil, err
	}
	defer closer.Close()
	n := 0
	var sample []*graph.Graph
	for {
		g, err := gs.Next()
		if err == io.EOF {
			return n, sample, nil
		}
		if err != nil {
			return 0, nil, err
		}
		if len(sample) < sampleCap {
			sample = append(sample, g)
		}
		n++
	}
}

// loadCorpus materializes the whole corpus (the query phase needs the
// graphs for verification).
func loadCorpus(path string) ([]*graph.Graph, error) {
	gs, closer, err := openCorpus(path)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	var db []*graph.Graph
	for {
		g, err := gs.Next()
		if err == io.EOF {
			return db, nil
		}
		if err != nil {
			return nil, err
		}
		db = append(db, g)
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MiB. Returns 0 where /proc is unavailable; the report field then
// reads as absent, and pisbench's build-RSS invariants print skip.
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
