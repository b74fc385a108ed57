package obs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pis_test_total", "test counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	// Re-registration returns the same instrument.
	if r.Counter("pis_test_total", "test counter") != c {
		t.Fatal("re-registration did not return the existing counter")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("pis_mismatch", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name did not panic")
		}
	}()
	r.Gauge("pis_mismatch", "x")
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("pis_stage_total", "per-stage", "stage")
	v.With("plan").Add(3)
	v.With("verify").Inc()
	if got := v.Value("plan"); got != 3 {
		t.Fatalf("plan = %d, want 3", got)
	}
	if got := v.Value("missing"); got != 0 {
		t.Fatalf("missing = %d, want 0", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pis_stage_total counter",
		`pis_stage_total{stage="plan"} 3`,
		`pis_stage_total{stage="verify"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeAndGaugeGroup(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("pis_gauge", "g")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	val := 7.0
	r.GaugeGroup(func() []float64 { return []float64{val} }, GaugeSpec{"pis_gf", "gf"})
	// Re-registration replaces the callback.
	r.GaugeGroup(func() []float64 { return []float64{val * 2} }, GaugeSpec{"pis_gf", "gf"})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pis_gf 14") {
		t.Errorf("gauge group not replaced:\n%s", sb.String())
	}
}

// TestGaugeGroupSampledOncePerScrape: a group's callback runs once a
// scrape, however many of its gauges the scrape writes and whatever sits
// between them, and each gauge writes its own value of that one sample.
func TestGaugeGroupSampledOncePerScrape(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.GaugeGroup(func() []float64 {
		calls++
		return []float64{float64(calls), float64(10 * calls)}
	}, GaugeSpec{"pis_a", "a"}, GaugeSpec{"pis_b", "b"})
	r.Counter("pis_between_total", "registered between the group and its rebinding")
	// Rebinding one gauge of the group moves it to the newest group.
	r.GaugeGroup(func() []float64 { return []float64{-1} }, GaugeSpec{"pis_b", "b"})
	for scrape := 1; scrape <= 3; scrape++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if calls != scrape {
			t.Fatalf("after %d scrapes the callback ran %d times", scrape, calls)
		}
		for _, want := range []string{fmt.Sprintf("pis_a %d\n", scrape), "pis_b -1\n"} {
			if !strings.Contains(sb.String(), want) {
				t.Errorf("scrape %d lacks %q:\n%s", scrape, want, sb.String())
			}
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pis_lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.5) // overflow bucket
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pis_lat_seconds histogram",
		`pis_lat_seconds_bucket{le="0.001"} 1`,
		`pis_lat_seconds_bucket{le="0.01"} 2`,
		`pis_lat_seconds_bucket{le="0.1"} 2`,
		`pis_lat_seconds_bucket{le="+Inf"} 3`,
		"pis_lat_seconds_count 3",
		"# TYPE pis_lat_seconds_clipped_total counter",
		"pis_lat_seconds_clipped_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if math.Abs(h.Snapshot().Sum-0.5055) > 1e-9 {
		t.Errorf("sum = %v, want 0.5055", h.Snapshot().Sum)
	}
	if c := h.Snapshot().Clipped(); c != 1 {
		t.Errorf("Clipped() = %d, want 1", c)
	}
}

// TestLatencyBucketsCoverSlowStages: a stage that takes a minute must
// read as about a minute, not as the old 10 s ceiling, and only what
// exceeds the top bound counts as clipped.
func TestLatencyBucketsCoverSlowStages(t *testing.T) {
	if top := LatencyBuckets[len(LatencyBuckets)-1]; top != 300 {
		t.Fatalf("largest latency bound is %v s, want 300", top)
	}
	h := newHistogram("q", "", "", "", LatencyBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(40) // the n=500k verify stage sits between 10 s and 60 s
	}
	if p95 := h.Quantile(0.95); p95 <= 25 || p95 > 60 {
		t.Errorf("p95 of 40 s samples = %v, want within (25, 60]", p95)
	}
	if c := h.Snapshot().Clipped(); c != 0 {
		t.Errorf("%d of 100 samples at 40 s clipped", c)
	}
	h.Observe(301)
	if c := h.Snapshot().Clipped(); c != 1 {
		t.Errorf("Clipped() = %d after one 301 s sample, want 1", c)
	}
}

func TestHistogramVecExposition(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("pis_stage_seconds", "stages", "stage", []float64{0.01, 0.1})
	v.With("plan").Observe(0.005)
	v.With("verify").Observe(0.05)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`pis_stage_seconds_bucket{stage="plan",le="0.01"} 1`,
		`pis_stage_seconds_bucket{stage="verify",le="+Inf"} 1`,
		`pis_stage_seconds_count{stage="plan"} 1`,
		`pis_stage_seconds_sum{stage="verify"} 0.05`,
		"# TYPE pis_stage_seconds_clipped_total counter",
		`pis_stage_seconds_clipped_total{stage="plan"} 0`,
		`pis_stage_seconds_clipped_total{stage="verify"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestExpositionFormatValid walks every line of a populated registry's
// output and checks the line grammar: comments start with # HELP/# TYPE,
// samples are "name{labels} value" with a parseable value.
func TestExpositionFormatValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("pis_a_total", "a").Inc()
	r.Gauge("pis_b", "b").Set(1.5)
	h := r.Histogram("pis_c_seconds", "c", []float64{0.1, 1})
	h.Observe(0.05)
	v := r.CounterVec("pis_d_total", "d", "kind")
	v.With("x").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition output")
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("bad comment line %q", line)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("sample line %q does not have exactly name and value", line)
			continue
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("unterminated label set in %q", line)
			}
			name = name[:i]
		}
		for _, c := range name {
			if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
				t.Errorf("bad metric name character %q in %q", c, line)
				break
			}
		}
	}
}

// TestHistogramQuantileAccuracy observes a known uniform distribution
// and checks that interpolated p50/p95/p99 land within one bucket width
// of the true quantiles.
func TestHistogramQuantileAccuracy(t *testing.T) {
	bounds := make([]float64, 100)
	for i := range bounds {
		bounds[i] = float64(i+1) / 100 // 0.01 ... 1.00
	}
	h := newHistogram("q", "", "", "", bounds)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Observe(rng.Float64()) // uniform on [0,1)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 0.50}, {0.95, 0.95}, {0.99, 0.99},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > 0.011 {
			t.Errorf("Quantile(%v) = %v, want %v ± 0.011", tc.q, got, tc.want)
		}
	}
}

// TestHistogramQuantileExponential repeats the accuracy check on a
// skewed (exponential) distribution against empirically sorted truth.
func TestHistogramQuantileExponential(t *testing.T) {
	h := newHistogram("q", "", "", "", LatencyBuckets)
	rng := rand.New(rand.NewSource(2))
	n := 50000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 0.002 // mean 2ms
		h.Observe(vals[i])
	}
	sortFloats(vals)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		truth := vals[int(q*float64(n))-1]
		// Within a factor of the local bucket ratio (~2.5x) either way.
		if got < truth/2.5 || got > truth*2.5 {
			t.Errorf("Quantile(%v) = %v, truth %v: outside one bucket ratio", q, got, truth)
		}
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestHistogramSnapshotSub(t *testing.T) {
	h := newHistogram("q", "", "", "", []float64{1, 10})
	h.Observe(0.5)
	before := h.Snapshot()
	h.Observe(5)
	h.Observe(20)
	diff := h.Snapshot().Sub(before)
	if diff.Count() != 2 {
		t.Fatalf("diff count = %d, want 2", diff.Count())
	}
	if math.Abs(diff.Sum-25) > 1e-9 {
		t.Fatalf("diff sum = %v, want 25", diff.Sum)
	}
	if q := diff.Quantile(1); q != 10 {
		t.Fatalf("diff max quantile = %v, want top finite bound 10", q)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := newHistogram("q", "", "", "", []float64{1})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram("q", "", "", "", []float64{0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count())
	}
	if math.Abs(s.Sum-2000) > 1e-6 {
		t.Fatalf("sum = %v, want 2000", s.Sum)
	}
}

func TestQueryLogRing(t *testing.T) {
	l := NewQueryLog(3)
	for i := 0; i < 5; i++ {
		l.Add(QueryRecord{Answers: i})
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	got := l.Snapshot(0)
	if len(got) != 3 || got[0].Answers != 4 || got[1].Answers != 3 || got[2].Answers != 2 {
		t.Fatalf("snapshot = %+v, want newest-first 4,3,2", got)
	}
	if lim := l.Snapshot(2); len(lim) != 2 || lim[0].Answers != 4 {
		t.Fatalf("limited snapshot = %+v", lim)
	}
}

func TestSpanTree(t *testing.T) {
	root := &Span{Name: "search", DurationMS: 10}
	root.Child("plan", 1)
	f := root.Child("filter", 4)
	f.SetAttr("struct_candidates", 100)
	root.Child("verify", 5)
	if got := root.ChildSum(); got != 10 {
		t.Fatalf("child sum = %v, want 10", got)
	}
	if f.Attrs["struct_candidates"] != 100 {
		t.Fatalf("attr lost: %+v", f.Attrs)
	}
}

func TestReadProcessStats(t *testing.T) {
	s := ReadProcessStats()
	if s.Goroutines < 1 {
		t.Errorf("goroutines = %d, want >= 1", s.Goroutines)
	}
	if s.HeapBytes == 0 {
		t.Errorf("heap bytes = 0, want > 0")
	}
	if s.GCPauseTotalMS < 0 {
		t.Errorf("gc pause total = %v, want >= 0", s.GCPauseTotalMS)
	}
}

func TestMS(t *testing.T) {
	if got := MS(1500 * time.Microsecond); got != 1.5 {
		t.Fatalf("MS = %v, want 1.5", got)
	}
}

// Clipped returns the number of observations above the largest bound.
func (s HistogramSnapshot) Clipped() uint64 { return s.Counts[len(s.Bounds)] }
