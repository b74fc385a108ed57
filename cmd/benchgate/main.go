// Command benchgate validates an out-of-core report written by
// pisbench -large against the absolute invariants of the streaming build,
// with no baseline involved: answers non-empty, positive mapped
// throughput, and build peak RSS under 50% of the raw posting volume the
// build avoided holding in heap. Relative performance gates belong to the
// repository's benchmark (bench/), not here.
//
// Usage:
//
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
	checkPath := flag.String("check", "", "out-of-core report to validate (required)")
	flag.Parse()
	if *checkPath == "" {
		log.Fatal("-check is required")
	}
	f, err := os.Open(*checkPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	var rep harness.BenchReport
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		log.Fatalf("parsing %s: %v", *checkPath, err)
	}
	check(rep)
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
