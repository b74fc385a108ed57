package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// child runs one workload in a process of its own, as the driver does, so
// peak RSS and the metrics registry start clean. It passes the child's
// report through and returns its last line, decoded.
func child(name string, seed int64, seconds, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(stdout.Bytes())
	if runErr != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, runErr)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", name, seed, err)
	}
	return &res, nil
}

// runAll runs the four workloads, each timed and then traced.
func runAll(seed int64, seconds int) error {
	for _, sp := range specs {
		for trace := 0; trace <= 1; trace++ {
			if _, err := child(sp.name, seed, seconds, trace); err != nil {
				return err
			}
		}
	}
	return nil
}

// quartiles are Python's statistics.quantiles(xs, n=4), the statistic
// the driver accepts or rejects the benchmark by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	at := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// calibrationRuns is how many runs per workload the spread is taken
// over, the driver's count.
const calibrationRuns = 10

// runCalibration measures how far each end-to-end metric moves between
// runs of the same code on seeds seed..seed+9, one process per run, and
// writes the table to bench/CALIBRATION.md. Spread is the distance
// between the first and third quartile as a share of the median, the
// statistic the driver accepts or rejects the benchmark by; range is
// (max - min) / median. It fails when a spread exceeds the metric's
// bound and flags a spread above a third of the bound or a range above
// the bound.
func runCalibration(seed int64, seconds int) error {
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	var md strings.Builder
	fmt.Fprintf(&md, "# Calibration\n\n`go run ./bench -calibrate -seed %d -seconds %d`: every workload run %d times, seeds %d..%d, one process per run.\n",
		seed, seconds, calibrationRuns, seed, seed+calibrationRuns-1)
	md.WriteString("Spread is (Q3 - Q1) / median over the runs, quartiles as Python's `statistics.quantiles(values, n=4)` gives them;\nit must stay within the bound. Range is (max - min) / median.\n")
	var over []string
	for _, sp := range specs {
		values := map[string][]float64{}
		for i := 0; i < calibrationRuns; i++ {
			res, err := child(sp.name, seed+int64(i), seconds, 0)
			if err != nil {
				return err
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Fprintf(&md, "\n## %s\n\n| metric | unit | median | spread | range | bound | verdict |\n|---|---|---|---|---|---|---|\n", sp.name)
		for _, d := range endToEnd {
			xs := values[d.name]
			q1, q2, q3 := quartiles(xs)
			sort.Float64s(xs)
			spread, rng, bound := (q3-q1)/q2, (xs[len(xs)-1]-xs[0])/q2, bounds[d.name]
			verdict := "spread within a third"
			switch {
			case spread > bound:
				verdict = "SPREAD ABOVE THE BOUND"
				over = append(over, sp.name+"/"+d.name)
			case rng > bound:
				verdict = "range above the bound"
			case spread > bound/3:
				verdict = "spread above a third"
			}
			fmt.Fprintf(&md, "| %s | %s | %.4f | %.4f | %.4f | %.2f | %s |\n", d.name, d.unit, q2, spread, rng, bound, verdict)
		}
	}
	fmt.Print("\n", md.String())
	if err := os.WriteFile(filepath.Join("bench", "CALIBRATION.md"), []byte(md.String()), 0o644); err != nil {
		return err
	}
	if len(over) > 0 {
		return fmt.Errorf("spread above the bound: %s", strings.Join(over, ", "))
	}
	return nil
}

// readBounds reads each end-to-end metric's bound from BENCHMARK.json in
// the directory the benchmark is run from, the repository root.
func readBounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
