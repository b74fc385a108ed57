// Command pisbench regenerates the evaluation figures of the PIS paper
// (ICDE'06 §7) on the synthetic screen database: Figures 8-12 plus the
// filter-timing claim. See EXPERIMENTS.md for paper-vs-measured notes.
//
// Usage:
//
//	pisbench                     # all figures at the default scale
//	pisbench -figure 9           # one figure
//	pisbench -n 10000 -queries 1000   # paper scale (slower)
//
// Out-of-core mode (-large) skips the figures and instead streams the
// database through index.BuildStreaming into a v3 file, opens it
// memory-mapped, and measures the standard workload against the mapped
// index — the configuration for databases that do not fit in RAM:
//
//	pisbench -large -n 100000 -queries 50 -json BENCH_pis_100k.json
//	pisbench -large -corpus screen.sdf -json BENCH_corpus.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"pis/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pisbench: ")
	var (
		figure  = flag.String("figure", "all", "figure to regenerate: 8, 9, 10, 11, 12, timing, all")
		n       = flag.Int("n", 2000, "database size (paper: 10000)")
		queries = flag.Int("queries", 200, "queries per query set")
		seed    = flag.Int64("seed", 1, "seed for generation and sampling")
		maxFrag = flag.Int("maxfrag", 5, "max indexed fragment size for figures 8-11")
		support = flag.Float64("minsupport", 0, "feature mining min support fraction (0 = default 0.05); lower mines more features")
		jsonOut = flag.String("json", "", "with -large: write the machine-readable report to this file")
		qEdges  = flag.Int("bench-edges", 16, "with -large: query size (edges) of the measured workload")
		bSigma  = flag.Float64("bench-sigma", 2, "with -large: σ of the measured workload")

		large    = flag.Bool("large", false, "out-of-core mode: streaming build to a v3 file, measure against the mapped index (skips the figures)")
		corpus   = flag.String("corpus", "", "with -large: index this SDF/SMILES file instead of -n synthetic molecules")
		arenaMB  = flag.Int("arena-mb", 0, "with -large: in-heap record arena budget in MiB for the external sort (0 = default)")
		memMB    = flag.Int("build-memlimit-mb", 0, "with -large: Go soft memory limit in MiB during the streaming build only (0 = none)")
		indexOut = flag.String("index-out", "", "with -large: keep the built .pisidx3 file at this path (default: temp file)")
	)
	flag.Parse()

	cfg := harness.Config{DBSize: *n, Seed: *seed, Queries: *queries, MaxFragmentEdges: *maxFrag,
		MinSupportFraction: *support}
	if *large {
		start := time.Now()
		rep, err := harness.MeasureLarge(cfg, *qEdges, *bSigma, harness.LargeOptions{
			Corpus:             *corpus,
			ArenaBytes:         *arenaMB << 20,
			IndexPath:          *indexOut,
			BuildMemLimitBytes: int64(*memMB) << 20,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "out-of-core run: %d graphs in %v\n", rep.DBSize, time.Since(start))
		fmt.Fprintf(os.Stderr, "streaming build: %.0f ms, peak RSS %.1f MiB vs %.1f MiB raw postings (%d spill runs, %.1f MiB spilled)\n",
			rep.BuildMS, rep.BuildPeakRSSMB, float64(rep.RawPostingBytes)/(1<<20),
			rep.StreamSpillRuns, float64(rep.StreamSpillBytes)/(1<<20))
		fmt.Fprintf(os.Stderr, "index open: mapped %.1f ms vs heap %.1f ms (%d bytes on disk)\n",
			rep.IndexOpenMSMapped, rep.IndexOpenMSHeap, rep.IndexBytes)
		fmt.Fprintf(os.Stderr, "mapped queries: %.1f q/s over %d queries, avg %.1f answers\n",
			rep.QueriesPerSec, rep.Queries, rep.AvgAnswers)
		if *jsonOut != "" {
			writeReport(rep, *jsonOut)
		}
		return
	}
	want := func(f string) bool { return *figure == "all" || *figure == f }

	var env *harness.Env
	buildEnv := func() *harness.Env {
		if env == nil {
			start := time.Now()
			var err error
			env, err = harness.BuildEnv(cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "built environment: %d graphs, %d features, %v\n",
				cfg.DBSize, len(env.Features), time.Since(start))
		}
		return env
	}

	printed := false
	sep := func() {
		if printed {
			fmt.Println(strings.Repeat("=", 60))
		}
		printed = true
	}

	if want("8") {
		sep()
		harness.Figure8(buildEnv()).Render(os.Stdout)
	}
	if want("9") {
		sep()
		harness.Figure9(buildEnv()).Render(os.Stdout)
	}
	if want("10") {
		sep()
		harness.Figure10(buildEnv()).Render(os.Stdout)
	}
	if want("11") {
		sep()
		harness.Figure11(buildEnv()).Render(os.Stdout)
	}
	if want("12") {
		sep()
		f, err := harness.Figure12(cfg)
		if err != nil {
			log.Fatal(err)
		}
		f.Render(os.Stdout)
	}
	if want("timing") {
		sep()
		avg, expanded, usable, qn := harness.FilterTiming(buildEnv(), 16, 2)
		fmt.Printf("PIS filter stage: avg %v per query over %d Q16 queries (σ=2)\n", avg, qn)
		fmt.Printf("query planner: avg %.1f of %.1f materialized fragments expanded per query\n", expanded, usable)
		fmt.Println("paper claim: pruning takes < 1 s per query on 2.5 GHz Xeon, 10k graphs")
	}
	if !printed {
		log.Fatalf("unknown figure %q", *figure)
	}
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
