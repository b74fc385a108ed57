// Command pisbench measures PIS at scale: it builds a durable store over
// the database with pis.Create, reopens it with pis.Open (index
// memory-mapped) and measures the standard workload through the reopened
// Database — the store `pisserved -data-dir` opens. It prints the run as a
// row of LARGE.md's table, checks the run's invariants and exits 1 when
// one fails:
//
//	pisbench -n 20000 -queries 25 -json large.json
//	pisbench -corpus screen.sdf -data-dir screen.store -json BENCH_corpus.json
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
		n       = flag.Int("n", 2000, "database size (paper: 10000)")
		queries = flag.Int("queries", 200, "queries in the measured workload")
		seed    = flag.Int64("seed", 1, "seed for generation and sampling")
		maxFrag = flag.Int("maxfrag", 5, "max indexed fragment size (edges) of the mined features")
		jsonOut = flag.String("json", "", "write the machine-readable report to this file")
		qEdges  = flag.Int("bench-edges", 16, "query size (edges) of the measured workload")
		bSigma  = flag.Float64("bench-sigma", 2, "σ of the measured workload")
		corpus  = flag.String("corpus", "", "index this SDF/SMILES file instead of -n synthetic molecules")
		dataDir = flag.String("data-dir", "", "keep the built store in this directory, which must not hold one (default: a temporary directory, removed)")
	)
	flag.Parse()

	cfg := harness.Config{DBSize: *n, Seed: *seed, Queries: *queries, MaxFragmentEdges: *maxFrag}
	start := time.Now()
	rep, err := harness.MeasureLarge(cfg, *qEdges, *bSigma, harness.LargeOptions{Corpus: *corpus, DataDir: *dataDir})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "store run: %d graphs in %v\n", rep.DBSize, time.Since(start))
	fmt.Fprintf(os.Stderr, "pis.Create: %.0f ms, peak RSS %.1f MiB; pis.Open: %.1f ms (%d index bytes on disk)\n",
		rep.BuildMS, rep.BuildPeakRSSMB, rep.OpenMS, rep.IndexBytes)
	if *jsonOut != "" {
		writeReport(rep, *jsonOut)
	}
	printRow(rep)
	if !checkLarge(rep) {
		os.Exit(1)
	}
}

// printRow prints the run as a row of LARGE.md's table ("One build
// path"), in its column order; the commit column is left for the reader
// to fill in.
func printRow(r harness.BenchReport) {
	fmt.Printf("| | %d | %.2f | %.1f | %.1f | %.1f | %.2f | %.2f | %.2f | %.0f | %.0f |\n",
		r.DBSize, r.BuildMS/1000, r.BuildPeakRSSMB, r.OpenMS, r.QueriesPerSec,
		r.AvgStructCandidates, r.AvgVerified, r.AvgAnswers, r.AvgAllocKBPerQuery, r.PeakRSSMB)
}

// checkLarge prints the invariants of a run, one line each, and reports
// whether all hold: the reopened store holds every graph, its queries find
// answers, and the first measured ones answer as SearchNaive does.
func checkLarge(r harness.BenchReport) bool {
	ok := true
	check := func(pass bool, format string, args ...any) {
		verdict := "ok  "
		if !pass {
			verdict, ok = "FAIL", false
		}
		fmt.Fprintf(os.Stderr, "%s  %s\n", verdict, fmt.Sprintf(format, args...))
	}
	check(r.LiveGraphs == r.DBSize, "live_graphs %d == %d (the reopened store holds every graph)", r.LiveGraphs, r.DBSize)
	check(r.AvgAnswers > 0, "avg_answers %.2f > 0 (the reopened store finds answers)", r.AvgAnswers)
	check(r.QueriesPerSec > 0, "queries_per_sec %.2f > 0", r.QueriesPerSec)
	check(r.OpenMS > 0, "open_ms %.2f > 0", r.OpenMS)
	check(r.OracleQueries == min(3, r.Queries) && r.OracleMismatches == 0,
		"oracle_mismatches %d of %d (the first queries answer as SearchNaive)", r.OracleMismatches, r.OracleQueries)
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
