// Command benchgate compares a freshly measured pisbench report against
// the committed BENCH_pis.json baseline and fails on performance
// regression, giving CI teeth: a change that slows the query pipeline
// or re-inflates its allocation profile fails the build instead of
// landing silently.
//
// Six metrics are gated, each with a relative tolerance (default 20%,
// wide enough to absorb shared-runner noise):
//
//   - queries_per_sec   must not drop below baseline × (1 - tolerance)
//   - avg_filter_ms     must not rise above baseline × (1 + tolerance)
//   - avg_verify_ms     likewise — a filter that passes junk candidates
//     shows up here even when the filter itself got faster
//   - verify_time_share likewise, catching a drift in the filter/verify
//     balance that the absolute numbers absorb on a fast runner
//   - avg_allocs_per_query (machine-independent) likewise
//   - avg_prescreen_rejects must not drop below baseline × (1 - tolerance):
//     a fingerprint regression that stops refuting candidates pushes them
//     all back into branch-and-bound
//
// Three out-of-core metrics are gated the same way when present:
// peak_rss_mb and index_open_ms_mapped must not rise, queries_per_sec
// already covers mapped throughput (a BENCH file measured with -large
// runs its query loop against the mapped index).
//
// Metrics skip automatically against a baseline that predates them
// (value 0 or absent), so the gate stays usable across transitions.
//
// Improvements never fail the gate; benchgate prints a hint to refresh
// the baseline when the current report is clearly better. To accept an
// intentional change, regenerate the report with pisbench and commit it:
//
//	go run ./cmd/pisbench -figure timing -n 600 -queries 60 -json BENCH_pis.json
//
// -check validates a single out-of-core report against the absolute
// invariants of the streaming build (no baseline involved): answers
// non-empty, positive mapped throughput, and build peak RSS under 50%
// of the raw posting volume the build avoided holding in heap.
//
// Usage:
//
//	benchgate -baseline BENCH_pis.json -current /tmp/BENCH_new.json [-tolerance 0.2]
//	benchgate -check BENCH_pis_100k.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"pis/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	var (
		baselinePath = flag.String("baseline", "BENCH_pis.json", "committed baseline report")
		currentPath  = flag.String("current", "", "freshly measured report (required)")
		tolerance    = flag.Float64("tolerance", 0.2, "relative regression tolerance (0.2 = 20%)")
		checkPath    = flag.String("check", "", "validate this out-of-core report against absolute invariants instead of a baseline")
	)
	flag.Parse()
	if *checkPath != "" {
		check(read(*checkPath))
		return
	}
	if *currentPath == "" {
		log.Fatal("-current is required")
	}
	if *tolerance < 0 {
		log.Fatal("-tolerance must be >= 0")
	}
	baseline := read(*baselinePath)
	current := read(*currentPath)

	type gate struct {
		name           string
		base, cur      float64
		higherIsBetter bool
	}
	gates := []gate{
		{"queries_per_sec", baseline.QueriesPerSec, current.QueriesPerSec, true},
		{"avg_filter_ms", baseline.AvgFilterMS, current.AvgFilterMS, false},
		{"avg_verify_ms", baseline.AvgVerifyMS, current.AvgVerifyMS, false},
		{"verify_time_share", baseline.VerifyTimeShare, current.VerifyTimeShare, false},
		{"avg_allocs_per_query", baseline.AvgAllocsPerQuery, current.AvgAllocsPerQuery, false},
		{"avg_prescreen_rejects", baseline.AvgPrescreenRejects, current.AvgPrescreenRejects, true},
		{"peak_rss_mb", baseline.PeakRSSMB, current.PeakRSSMB, false},
		{"index_open_ms_mapped", baseline.IndexOpenMSMapped, current.IndexOpenMSMapped, false},
	}

	failed, improved := false, false
	fmt.Printf("%-22s  %12s  %12s  %8s  %s\n", "metric", "baseline", "current", "delta", "verdict")
	for _, g := range gates {
		if g.base <= 0 {
			fmt.Printf("%-22s  %12.3f  %12.3f  %8s  skip (no baseline)\n", g.name, g.base, g.cur, "-")
			continue
		}
		delta := (g.cur - g.base) / g.base
		regressed := delta < -*tolerance
		better := delta > 0
		if !g.higherIsBetter {
			regressed = delta > *tolerance
			better = delta < 0
		}
		verdict := "ok"
		switch {
		case regressed:
			verdict = "REGRESSION"
			failed = true
		case better:
			verdict = "improved"
			improved = true
		}
		fmt.Printf("%-22s  %12.3f  %12.3f  %+7.1f%%  %s\n", g.name, g.base, g.cur, delta*100, verdict)
	}
	switch {
	case failed:
		fmt.Printf("\nFAIL: regression beyond the %.0f%% tolerance.\n", *tolerance*100)
		fmt.Println("If intentional, refresh the baseline: go run ./cmd/pisbench -figure timing -n 600 -queries 60 -json BENCH_pis.json and commit it.")
		os.Exit(1)
	case improved:
		fmt.Println("\nPASS — current report beats the baseline; consider committing it as the new baseline.")
	default:
		fmt.Println("\nPASS")
	}
}

// check enforces the absolute invariants of an out-of-core report: the
// mapped index must actually answer queries, and the streaming build's
// working set must stay under half the posting volume it sorted.
func check(rep harness.BenchReport) {
	fail := false
	assert := func(ok bool, format string, args ...any) {
		verdict := "ok"
		if !ok {
			verdict = "FAIL"
			fail = true
		}
		fmt.Printf("%-4s  %s\n", verdict, fmt.Sprintf(format, args...))
	}
	assert(rep.DBSize > 0, "db_size %d > 0", rep.DBSize)
	assert(rep.RawPostingBytes > 0, "raw_posting_bytes %d > 0 (report came from a -large run)", rep.RawPostingBytes)
	assert(rep.AvgAnswers > 0, "avg_answers %.2f > 0 (mapped queries find answers)", rep.AvgAnswers)
	assert(rep.QueriesPerSec > 0, "queries_per_sec %.2f > 0", rep.QueriesPerSec)
	assert(rep.IndexOpenMSMapped > 0, "index_open_ms_mapped %.2f > 0", rep.IndexOpenMSMapped)
	// The RSS budget is only meaningful when the posting volume dwarfs a
	// Go process's fixed footprint (runtime, code, GC headroom — tens of
	// MiB regardless of the database); below the threshold the bound
	// would fail for any implementation, streaming or not.
	const rssGateMinPostingMB = 128
	rawMB := float64(rep.RawPostingBytes) / (1 << 20)
	switch {
	case rep.BuildPeakRSSMB <= 0:
		fmt.Println("skip  build_peak_rss_mb unavailable (no /proc on the measuring host)")
	case rawMB < rssGateMinPostingMB:
		fmt.Printf("skip  build_peak_rss_mb %.1f: posting volume %.1f MiB under the %d MiB gate threshold\n",
			rep.BuildPeakRSSMB, rawMB, rssGateMinPostingMB)
	default:
		assert(rep.BuildPeakRSSMB < 0.5*rawMB,
			"build_peak_rss_mb %.1f < 50%% of raw posting volume (%.1f MiB)", rep.BuildPeakRSSMB, rawMB)
	}
	if fail {
		fmt.Println("\nFAIL: out-of-core invariants violated.")
		os.Exit(1)
	}
	fmt.Println("\nPASS")
}

func read(path string) harness.BenchReport {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	var rep harness.BenchReport
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		log.Fatalf("parsing %s: %v", path, err)
	}
	return rep
}
