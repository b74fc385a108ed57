package harness

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyConfig and tinySample, the graphs mined for features, keep unit
// tests fast; TestPaperFigures and pisbench run larger scales.
func tinyConfig() Config {
	return Config{DBSize: 250, Seed: 42, Queries: 30, MaxFragmentEdges: 4}
}

const tinySample = 100

func buildTiny(t *testing.T) *Env {
	t.Helper()
	env, err := BuildEnv(tinyConfig(), tinySample)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestBuildEnv(t *testing.T) {
	env := buildTiny(t)
	if len(env.DB) != 250 {
		t.Fatalf("db size %d", len(env.DB))
	}
	if len(env.Features) == 0 {
		t.Fatal("no features mined")
	}
	if env.Index.Stats().Fragments == 0 {
		t.Fatal("index is empty")
	}
}

func TestBucketOf(t *testing.T) {
	// At the paper scale buckets are verbatim.
	cases := map[int]int{0: 0, 299: 0, 300: 1, 749: 1, 750: 2, 1500: 3, 3000: 4, 5000: 5, 9999: 5}
	for yt, want := range cases {
		if got := bucketOf(yt, 10000); got != want {
			t.Errorf("bucketOf(%d, 10000) = %d, want %d", yt, got, want)
		}
	}
	// Scaled: at n=1000 the Q750 bucket covers [30, 75).
	if got := bucketOf(30, 1000); got != 1 {
		t.Errorf("bucketOf(30, 1000) = %d, want 1", got)
	}
	if got := bucketOf(29, 1000); got != 0 {
		t.Errorf("bucketOf(29, 1000) = %d, want 0", got)
	}
}

func TestFigure8ShapeProperties(t *testing.T) {
	env := buildTiny(t)
	f := Figure8(env)
	if len(f.Rows) != len(PaperBuckets) {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	if len(f.Series) != 4 { // topoPrune + 3 sigmas
		t.Fatalf("series = %v", f.Series)
	}
	sawData := false
	for _, r := range f.Rows {
		if r.Queries == 0 {
			continue
		}
		sawData = true
		topo := r.Values[0]
		// PIS candidates never exceed topoPrune's (filter only shrinks),
		// and are monotone in σ.
		for vi := 1; vi < len(r.Values); vi++ {
			if r.Values[vi] > topo+1e-9 {
				t.Errorf("bucket %s: PIS %v above topoPrune %v", r.Bucket, r.Values[vi], topo)
			}
		}
		if !(r.Values[1] <= r.Values[2]+1e-9 && r.Values[2] <= r.Values[3]+1e-9) {
			t.Errorf("bucket %s: candidates not monotone in σ: %v", r.Bucket, r.Values[1:])
		}
	}
	if !sawData {
		t.Fatal("no bucket received any query")
	}
}

// TestFigure8CandidateCountsPinned holds Yt and Yp of the figure harness
// (CountCandidates + PlannerOff: the paper's exhaustive Algorithm 2) to
// the totals it produced before the prescreen moved ahead of the σ range
// queries. Without verification no prescreen runs, so that reordering —
// and anything the planner learns — must leave these counts bit-equal.
// Yp was re-pinned once, when fragments began to arrive class by class:
// the Greedy partition breaks weight ties by fragment order.
func TestFigure8CandidateCountsPinned(t *testing.T) {
	f := Figure8(buildTiny(t))
	want := map[string][]int{ // bucket: summed topoPrune, PIS σ=1, σ=2, σ=4
		"Q1.5k": {27, 8, 13, 27},
		"Q3k":   {382, 99, 179, 347},
		"Q>5k":  {5215, 2866, 4082, 5106},
	}
	queries := map[string]int{"Q1.5k": 1, "Q3k": 6, "Q>5k": 23}
	for _, r := range f.Rows {
		if r.Queries != queries[r.Bucket] {
			t.Errorf("bucket %s: %d queries, want %d", r.Bucket, r.Queries, queries[r.Bucket])
			continue
		}
		for vi, w := range want[r.Bucket] {
			if got := int(math.Round(r.Values[vi] * float64(r.Queries))); got != w {
				t.Errorf("bucket %s series %s: %d candidates, want %d", r.Bucket, f.Series[vi], got, w)
			}
		}
	}
}

func TestFigure9RatiosAtLeastOne(t *testing.T) {
	env := buildTiny(t)
	f := Figure9(env)
	for _, r := range f.Rows {
		if r.Queries == 0 {
			continue
		}
		for vi, v := range r.Values {
			if !math.IsNaN(v) && v < 1-1e-9 {
				t.Errorf("bucket %s series %s: reduction ratio %v below 1",
					r.Bucket, f.Series[vi], v)
			}
		}
		// Smaller σ must prune at least as hard: ratio(σ=1) >= ratio(σ=4).
		if !math.IsNaN(r.Values[0]) && !math.IsNaN(r.Values[2]) &&
			r.Values[0] < r.Values[2]-1e-9 {
			t.Errorf("bucket %s: ratio not monotone in σ: %v", r.Bucket, r.Values)
		}
	}
}

func TestFigure11LambdaOneAndTwoAgree(t *testing.T) {
	// The paper's finding: pruning is insensitive to λ >= 1 (their λ=1 and
	// λ=2 curves overlap). λ only reweights fragments for the partition
	// choice, so small per-bucket wobble is expected on synthetic data;
	// assert near-agreement rather than identity.
	env := buildTiny(t)
	f := Figure11(env)
	for _, r := range f.Rows {
		if r.Queries == 0 {
			continue
		}
		l1, l2 := r.Values[1], r.Values[2]
		if math.IsNaN(l1) || math.IsNaN(l2) {
			continue
		}
		if rel := math.Abs(l1-l2) / math.Max(l1, l2); rel > 0.15 {
			t.Errorf("bucket %s: λ=1 (%v) and λ=2 (%v) diverge by %.0f%%",
				r.Bucket, l1, l2, rel*100)
		}
	}
}

func TestFigureRender(t *testing.T) {
	env := buildTiny(t)
	f := Figure9(env)
	var sb strings.Builder
	f.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Figure 9", "bucket", "Q<300", "Q>5k", "PIS σ=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q:\n%s", want, out)
		}
	}
}

func TestFilterTiming(t *testing.T) {
	env := buildTiny(t)
	avg, expanded, usable, n := FilterTiming(env, 16, 2)
	if n != env.Config.Queries {
		t.Fatalf("timed %d queries", n)
	}
	if avg <= 0 {
		t.Fatal("non-positive filter time")
	}
	if expanded > usable {
		t.Fatalf("planner expanded %.1f of %.1f usable fragments", expanded, usable)
	}
}

func TestMeasureLargeSynthetic(t *testing.T) {
	cfg := tinyConfig()
	cfg.Queries = 12
	// A small build memory limit makes the build fold the stream in
	// several chunks and merge them, the path a 500k build takes.
	rep, err := MeasureLarge(cfg, 16, 2, LargeOptions{BuildMemLimitBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DBSize != cfg.DBSize || rep.Queries != cfg.Queries {
		t.Fatalf("report covers %d graphs / %d queries", rep.DBSize, rep.Queries)
	}
	if rep.StreamSpillRuns < 2 {
		t.Errorf("a 2 MiB build memory limit left the build in %d chunk", rep.StreamSpillRuns)
	}
	if rep.RawPostingBytes <= 0 {
		t.Error("no raw posting volume reported")
	}
	if rep.AvgAnswers <= 0 {
		t.Error("mapped queries returned no answers")
	}
	if rep.QueriesPerSec <= 0 {
		t.Error("no throughput measured")
	}
	if rep.IndexOpenMSMapped <= 0 || rep.IndexOpenMSHeap <= 0 || rep.IndexPairMS <= 0 {
		t.Errorf("open timings missing: mapped %v heap %v pair %v", rep.IndexOpenMSMapped, rep.IndexOpenMSHeap, rep.IndexPairMS)
	}
	if _, err := os.Stat("/proc/self/status"); err == nil && (rep.BuildPeakRSSMB <= 0 || rep.MiningPeakRSSMB <= 0) {
		t.Errorf("peak RSS not captured despite /proc being available: %v MiB after mining, %v after the build", rep.MiningPeakRSSMB, rep.BuildPeakRSSMB)
	}
	if rep.MiningMS <= 0 {
		t.Error("mining time not captured")
	}
}

// TestMeasureStageQuantilesExact: the stage percentiles are the queries'
// own stage times, not histogram bucket bounds, so over one query each is
// that query's time, which is also the stage mean.
func TestMeasureStageQuantilesExact(t *testing.T) {
	env := buildTiny(t)
	env.Config.Queries = 1
	rep := Measure(env, 8, 1)
	for _, st := range []struct {
		name string
		q    StageQuantiles
		mean float64
	}{
		{"plan", rep.PlanQuantiles, rep.AvgPlanMS},
		{"filter", rep.FilterQuantiles, rep.AvgFilterMS},
		{"verify", rep.VerifyQuantiles, rep.AvgVerifyMS},
	} {
		if st.q != (StageQuantiles{st.mean, st.mean, st.mean}) {
			t.Errorf("%s: one query's quantiles %+v, its time %v ms", st.name, st.q, st.mean)
		}
	}
	var times []time.Duration
	for i := 20; i >= 1; i-- {
		times = append(times, time.Duration(i)*time.Millisecond)
	}
	if got := stageQuantiles(times); got != (StageQuantiles{10, 19, 20}) {
		t.Errorf("quantiles of 1..20 ms: %+v, want the 10th, 19th and 20th", got)
	}
}

func TestCorpusSource(t *testing.T) {
	dir := t.TempDir()
	smi := filepath.Join(dir, "tiny.smi")
	if err := os.WriteFile(smi, []byte("CCO\nc1ccccc1 benzene\nCCC\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, sample, err := scanCorpus(smi, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(sample) != 2 {
		t.Fatalf("scanCorpus = %d molecules, %d sampled; want 3, 2", n, len(sample))
	}
	src, stop, err := buildSource(Config{}, LargeOptions{Corpus: smi})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		_, ok := src.Next()
		if !ok {
			break
		}
		got++
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("corpus source yielded %d graphs, want 3", got)
	}
	if _, _, err := openCorpus(filepath.Join(dir, "tiny.xyz")); err == nil {
		t.Fatal("unknown extension accepted")
	}
}

func TestFigure12SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 12 builds three indexes")
	}
	cfg := tinyConfig()
	cfg.Queries = 15
	f, err := Figure12(cfg, tinySample)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %v", f.Series)
	}
	if len(f.Rows) != len(PaperBuckets) {
		t.Fatalf("rows = %d", len(f.Rows))
	}
}
