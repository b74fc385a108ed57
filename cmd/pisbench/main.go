// Command pisbench measures PIS out of core: it streams the database
// through index.BuildStreaming into a v3 file, opens it memory-mapped, and
// measures the standard workload against the mapped index — the
// configuration for databases that do not fit in RAM. It prints the run
// as a row of LARGE.md's table, checks the run's invariants and exits 1
// when one fails:
//
//	pisbench -n 20000 -queries 25 -build-memlimit-mb 64 -json large.json
//	pisbench -corpus screen.sdf -json BENCH_corpus.json
//
// The paper's Figures 8-12 are tests: go test ./internal/harness -run
// TestPaperFigures -v.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"pis/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pisbench: ")
	var (
		n        = flag.Int("n", 2000, "database size (paper: 10000)")
		queries  = flag.Int("queries", 200, "queries in the measured workload")
		seed     = flag.Int64("seed", 1, "seed for generation and sampling")
		maxFrag  = flag.Int("maxfrag", 5, "max indexed fragment size (edges) of the mined features")
		support  = flag.Float64("minsupport", 0, "feature mining min support fraction (0 = default 0.05); lower mines more features")
		jsonOut  = flag.String("json", "", "write the machine-readable report to this file")
		qEdges   = flag.Int("bench-edges", 16, "query size (edges) of the measured workload")
		bSigma   = flag.Float64("bench-sigma", 2, "σ of the measured workload")
		corpus   = flag.String("corpus", "", "index this SDF/SMILES file instead of -n synthetic molecules")
		memMB    = flag.Int("build-memlimit-mb", 0, "Go soft memory limit in MiB during the streaming build only (0 = none)")
		indexOut = flag.String("index-out", "", "keep the built .pisidx3 file at this path (default: temp file)")
	)
	flag.Parse()

	cfg := harness.Config{DBSize: *n, Seed: *seed, Queries: *queries, MaxFragmentEdges: *maxFrag,
		MinSupportFraction: *support}
	start := time.Now()
	rep, err := harness.MeasureLarge(cfg, *qEdges, *bSigma, harness.LargeOptions{
		Corpus:             *corpus,
		IndexPath:          *indexOut,
		BuildMemLimitBytes: int64(*memMB) << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "out-of-core run: %d graphs in %v\n", rep.DBSize, time.Since(start))
	fmt.Fprintf(os.Stderr, "streaming build: %.0f ms, peak RSS %.1f MiB vs %.1f MiB raw postings (%d chunk runs, %.1f MiB)\n",
		rep.BuildMS, rep.BuildPeakRSSMB, float64(rep.RawPostingBytes)/(1<<20),
		rep.StreamSpillRuns, float64(rep.StreamSpillBytes)/(1<<20))
	fmt.Fprintf(os.Stderr, "index open: mapped %.1f ms vs heap %.1f ms (%d bytes on disk)\n",
		rep.IndexOpenMSMapped, rep.IndexOpenMSHeap, rep.IndexBytes)
	if *jsonOut != "" {
		writeReport(rep, *jsonOut)
	}
	printRow(rep)
	if !checkLarge(rep, *memMB) {
		os.Exit(1)
	}
}

// printRow prints the run as a row of LARGE.md's table, in its column
// order; the commit column is left for the reader to fill in.
func printRow(r harness.BenchReport) {
	q := func(s harness.StageQuantiles) string { return fmt.Sprintf("%.3g / %.4g / %.4g", s.P50, s.P95, s.P99) }
	fmt.Printf("| | %d | %.1f | %s | %s | %.0f | %.0f | %.1f | %.0f | %.2f | %.1f | %.0f |\n",
		r.DBSize, r.QueriesPerSec, q(r.FilterQuantiles), q(r.VerifyQuantiles),
		r.AvgStructCandidates, r.AvgVerified, r.AvgAnswers, r.AvgAllocKBPerQuery,
		r.BuildMS/1000, r.BuildPeakRSSMB, r.PeakRSSMB)
}

// checkLarge prints the invariants of an out-of-core run, one line each,
// and reports whether all hold: the mapped index answers queries, and
// the build's working set stays bounded. With a build memory limit the
// build must run in at least two chunks and peak under the limit; with
// at least 128 MiB of raw postings it must peak under half of them (below
// that a Go process's fixed footprint dominates any bound).
func checkLarge(r harness.BenchReport, memMB int) bool {
	ok := true
	check := func(pass bool, format string, args ...any) {
		verdict := "ok  "
		if !pass {
			verdict, ok = "FAIL", false
		}
		fmt.Fprintf(os.Stderr, "%s  %s\n", verdict, fmt.Sprintf(format, args...))
	}
	check(r.AvgAnswers > 0, "avg_answers %.2f > 0 (mapped queries find answers)", r.AvgAnswers)
	check(r.QueriesPerSec > 0, "queries_per_sec %.2f > 0", r.QueriesPerSec)
	check(r.IndexOpenMSMapped > 0, "index_open_ms_mapped %.2f > 0", r.IndexOpenMSMapped)
	if memMB > 0 {
		check(r.StreamSpillRuns >= 2, "stream_spill_runs %d >= 2 (the build ran in chunks under -build-memlimit-mb %d)", r.StreamSpillRuns, memMB)
	}
	if r.BuildPeakRSSMB <= 0 {
		fmt.Fprintln(os.Stderr, "skip  build_peak_rss_mb unavailable (no /proc on the measuring host)")
		return ok
	}
	if memMB > 0 {
		check(r.BuildPeakRSSMB <= float64(memMB), "build_peak_rss_mb %.1f <= %d (-build-memlimit-mb)", r.BuildPeakRSSMB, memMB)
	}
	if rawMB := float64(r.RawPostingBytes) / (1 << 20); rawMB >= 128 {
		check(r.BuildPeakRSSMB < 0.5*rawMB, "build_peak_rss_mb %.1f < 50%% of raw posting volume (%.1f MiB)", r.BuildPeakRSSMB, rawMB)
	}
	return ok
}

func writeReport(rep harness.BenchReport, path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("writing %s: %v", path, err)
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		log.Fatalf("writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("writing %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d queries, %.1f q/s)\n", path, rep.Queries, rep.QueriesPerSec)
	fmt.Fprintf(os.Stderr, "stage latency ms  p50/p95/p99  plan %.3f/%.3f/%.3f  filter %.3f/%.3f/%.3f  verify %.3f/%.3f/%.3f\n",
		rep.PlanQuantiles.P50, rep.PlanQuantiles.P95, rep.PlanQuantiles.P99,
		rep.FilterQuantiles.P50, rep.FilterQuantiles.P95, rep.FilterQuantiles.P99,
		rep.VerifyQuantiles.P50, rep.VerifyQuantiles.P95, rep.VerifyQuantiles.P99)
}
