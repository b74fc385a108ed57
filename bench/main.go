// Command bench is the repository's benchmark: it starts the real
// server.Server in front of the real backend inside this process, replays
// a seeded, fixed-length op list over loopback HTTP from two closed-loop
// keep-alive clients, checks answers against pis.New, and prints every
// metric by name with its unit. See README.md beside this file.
//
//	go run ./bench -workload broad -seed 1 -seconds 22 -trace 0   one timed run
//	go run ./bench -workload broad -trace 1                       one traced run
//	go run ./bench                                                all four workloads, timed then traced
//	go run ./bench -calibrate                                     spread of every end-to-end metric over ten seeds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measured phase the
// op lists are sized for.
const defaultSeconds = 22

// outDir receives the span files and, while a run lasts, its stores. It
// is relative to the directory the benchmark is run from, the repository
// root.
const outDir = "bench/out"

func main() {
	workload := flag.String("workload", "", "workload to run: broad, selective, mutating or cluster (default: all, timed then traced)")
	seed := flag.Int64("seed", 1, "seed the queries, their order and the mutation targets are made from; the corpus is the same on every run")
	seconds := flag.Int("seconds", defaultSeconds, "length the measured phase is sized for: the list holds rate × seconds ops")
	trace := flag.Int("trace", 0, "0: timed run, prints the end-to-end metrics; 1: traced run, prints the per-layer metrics")
	calibrate := flag.Bool("calibrate", false, "run every workload ten times on seeds seed..seed+9, print the spread of each end-to-end metric and write bench/CALIBRATION.md")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case *calibrate:
		err = runCalibration(*seed, *seconds)
	case *workload == "":
		err = runAll(*seed, *seconds)
	default:
		err = runOne(*workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(name string, seed int64, seconds int, traced bool) error {
	sp, ok := findSpec(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	workDir, err = filepath.Abs(workDir)
	if err != nil {
		return err
	}
	r, err := runWorkload(sp, seed, seconds, traced, workDir, outDir)
	if err != nil {
		return err
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	printEnv(r, traced)
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := r.values[d.name]
		fmt.Printf("%-34s %14.4f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if !traced {
		for _, d := range defs {
			if slices.Contains(r.refused, d.name) {
				return fmt.Errorf("%s needs more than %d samples, not %d: lengthen the run", d.name, minBeyond, r.counts[d.name])
			}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		return fmt.Errorf("%d of %d ops failed or mismatched the oracle", r.failed, r.attempted)
	}
	return nil
}

// printEnv prints what a reader needs to judge the numbers below it.
func printEnv(r *report, traced bool) {
	l := r.list
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("env: workload=%s seed=%d seconds=%d traced=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s clients=%d\n",
		r.spec.name, r.seed, r.seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, clients)
	fmt.Printf("env: corpus=%d list=%d warmup=%d list_sha256=%s\n", r.spec.n, len(l.ops), l.warmup, l.hash()[:16])
	fmt.Print("env: ops")
	for k, c := range l.counts {
		fmt.Printf(" %s=%d", kindNames[k], c)
	}
	fmt.Printf(" measured_s=%.3f attempted=%d failed=%d\n", r.measuredS, r.attempted, r.failed)
	fmt.Printf("env: predicted compactions at %v of %d, observed in the measured phase %.0f\n", l.compactAt, len(l.ops), r.values["segment.compactions"])
	fmt.Print("env: samples")
	for _, name := range []string{"search_p50_ms", "search_p95_ms", "search_p99_ms", "knn_p50_ms", "segment.insert_ms_p50", "segment.delete_ms_p50"} {
		fmt.Printf(" %s=%d", name, r.counts[name])
	}
	fmt.Println()
	if len(r.refused) > 0 {
		fmt.Printf("env: withheld (fewer than %d samples beyond the percentile, printed as 0): %s\n", minBeyond, strings.Join(r.refused, ", "))
	}
	for _, f := range r.failures {
		fmt.Println("failed:", f)
	}
}
