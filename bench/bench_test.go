package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestOpListsRepeat pins the generator: equal seeds give byte-identical
// request lists, and other seeds give other lists. A changed hash means
// every number measured before the change describes different work.
func TestOpListsRepeat(t *testing.T) {
	pinned := map[string]string{
		"broad":     "9746a1735d661406e2b66f0ddb82d060ce33c052519ebb6f222f5af2277b3a9b",
		"selective": "a871e602f27db230dd76dad469666d6b45f036611347aca3cc4b37dd27a7c2bb",
		"mutating":  "0cc524a1f3d0a673855941b5cf68372d694a7a0e8adbf7dcb157985139bb6b0a",
		"cluster":   "a84a608847ed5840a5ce2ab37340164551689b1c3a7a926f4e56c285e9285265",
	}
	for _, sp := range specs {
		a, err := generate(sp, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(sp, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(sp, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash() != b.hash() {
			t.Errorf("%s: two lists from seed 1 differ", sp.name)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 1 and 2 give the same list", sp.name)
		}
		if got := a.hash(); got != pinned[sp.name] {
			t.Errorf("%s: seed 1 list hashes to %s, pinned %s", sp.name, got, pinned[sp.name])
		}
	}
}

// TestCompactionPoints checks what the mutating workload is sized for:
// at the default length exactly two auto-compactions fall inside the
// measured phase, neither in its first or last tenth, on any seed; the
// other workloads never compact.
func TestCompactionPoints(t *testing.T) {
	for _, sp := range specs {
		for seed := int64(1); seed <= 5; seed++ {
			l, err := generate(sp, seed, defaultSeconds)
			if err != nil {
				t.Fatal(err)
			}
			if sp.name != "mutating" {
				if len(l.compactAt) != 0 {
					t.Errorf("%s seed %d: compactions at %v, want none", sp.name, seed, l.compactAt)
				}
				continue
			}
			measured := len(l.ops) - l.warmup
			lo, hi := l.warmup+measured/10, len(l.ops)-measured/10
			if len(l.compactAt) != 2 || l.compactAt[0] < lo || l.compactAt[1] >= hi {
				t.Errorf("mutating seed %d: compactions at %v, want two inside [%d,%d)", seed, l.compactAt, lo, hi)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the op lists are sized for %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads, the program has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is %q (%q), the program has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	for _, side := range []struct {
		what string
		json []metric
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(side.json) != len(side.defs) {
			t.Fatalf("%s: %d metrics, the program reports %d", side.what, len(side.json), len(side.defs))
		}
		for i, m := range side.json {
			if m.Name != side.defs[i].name || m.Unit != side.defs[i].unit {
				t.Errorf("%s[%d] is %s (%s), the program reports %s (%s)", side.what, i, m.Name, m.Unit, side.defs[i].name, side.defs[i].unit)
			}
		}
	}
}

// TestSmoke runs every workload end to end at a small size, traced, and
// requires that no op fails and every checked answer equals the oracle's.
// The mutating list is long enough for one auto-compaction in the
// measured phase, so the run also checks the generator's simulated
// trigger against the server: runWorkload fails an op when the two differ.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		sp.n, sp.rate = 300, 100
		if sp.name == "mutating" {
			sp.rate = 400
		}
		r, err := runWorkload(sp, 1, 2, true, t.TempDir(), t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if r.attempted < 200 || r.failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", sp.name, r.failed, r.attempted, r.failures)
		}
		if sp.name == "mutating" && (len(r.list.compactAt) != 1 || r.list.compactAt[0] < r.list.warmup) {
			t.Errorf("mutating: compactions at %v, want one after the %d warm-up ops", r.list.compactAt, r.list.warmup)
		}
		for _, name := range []string{"setup_s", "throughput_rps", "search_p50_ms", "cpu_ms_per_req", "peak_rss_mb"} {
			if r.values[name] <= 0 {
				t.Errorf("%s: %s = %v, want a positive figure", sp.name, name, r.values[name])
			}
		}
	}
}
