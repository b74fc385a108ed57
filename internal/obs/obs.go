// Package obs is the engine's dependency-free observability kernel: a
// metrics registry of atomic counters, gauges, and fixed-bucket
// histograms with Prometheus text-format export, plus the span-tree and
// query-log types the per-query tracing pipeline is built from.
//
// Every layer of the engine — core search stages, index range queries,
// segment compactions, WAL appends in the store, HTTP routes in the
// server — records into the shared Default registry, and every consumer
// (GET /metrics, the structured block in /stats, pisbench's
// report) reads back out of it, so production metrics and benchmark
// numbers come from one set of instruments and can never drift apart.
//
// Design constraints, in order:
//
//   - Cheap on the hot path. A counter Add is one atomic add; a
//     histogram Observe is a branch-free bucket search over a small
//     fixed bound slice plus two atomic adds. No locks, no maps, no
//     allocation after registration.
//   - Idempotent registration. Counter/Gauge/Histogram return the
//     existing metric when the name is already registered (with the
//     same type — a kind mismatch panics), so package-level metric
//     variables and repeatedly constructed servers share one instrument
//     the way Prometheus client libraries do. GaugeFunc re-registration
//     replaces the callback: the newest owner of a scrape-time value
//     wins.
//   - No dependencies. The exposition format is written by hand; it is
//     a stable, line-oriented text format.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the default histogram bounds for operation
// latencies, in seconds: 25µs to 5min, roughly 2-2.5x apart. Query
// stages at the current benchmark scale sit in the 0.1ms-10ms decades;
// WAL fsyncs and snapshot writes reach into the hundreds of ms; a verify
// stage over half a million graphs, an index build or a replica install
// takes tens of seconds. Whatever still lands above the top bound is
// counted in the histogram's _clipped_total.
var LatencyBuckets = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
	250e-3, 500e-3, 1, 2.5, 5, 10, 25, 60, 120, 300,
}

// SizeBuckets are the default histogram bounds for byte sizes: 1KiB to
// 1GiB, 4x apart.
var SizeBuckets = []float64{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// metric is one named instrument; write emits its exposition lines
// (HELP/TYPE header plus one or more samples).
type metric interface {
	metricName() string
	write(w *bufio.Writer)
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. The zero value is not usable; use NewRegistry or
// the process-wide Default.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]metric
	ordered []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every engine layer records
// into and every exporter reads from.
func Default() *Registry { return defaultRegistry }

// lookup returns the existing metric under name, registering the one
// built by mk otherwise. A name registered as a different concrete type
// panics: two packages disagree about what the metric is.
func (r *Registry) lookup(name string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := mk()
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// WritePrometheus renders every registered metric in text exposition
// format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]metric(nil), r.ordered...)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, m := range ms {
		m.write(bw)
	}
	return bw.Flush()
}

// --- counter ---

// Counter is a monotonically increasing value.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Counter returns the counter registered under name, creating it if
// needed. Counter names should end in _total.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.lookup(name, func() metric { return &Counter{name: name, help: help} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: %s is already registered as a %T, not a counter", name, m))
	}
	return c
}

// Add increments the counter by n (n must be >= 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) write(w *bufio.Writer) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// --- counter vec ---

// CounterVec is a family of counters distinguished by one label.
type CounterVec struct {
	name, help, label string

	mu       sync.Mutex
	children map[string]*vecCounter // label value -> counter
	order    []string
}

type vecCounter struct{ v atomic.Int64 }

// CounterVec returns the one-label counter family registered under
// name, creating it if needed.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	m := r.lookup(name, func() metric {
		return &CounterVec{name: name, help: help, label: label, children: make(map[string]*vecCounter)}
	})
	v, ok := m.(*CounterVec)
	if !ok {
		panic(fmt.Sprintf("obs: %s is already registered as a %T, not a counter vec", name, m))
	}
	return v
}

// With returns the child counter for one label value. Hold on to the
// result; the lookup takes the family lock.
func (v *CounterVec) With(value string) *LabeledCounter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &vecCounter{}
		v.children[value] = c
		v.order = append(v.order, value)
	}
	return &LabeledCounter{c: c}
}

// Value returns the current count for one label value (0 when the child
// was never created).
func (v *CounterVec) Value(value string) int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[value]; ok {
		return c.v.Load()
	}
	return 0
}

// LabeledCounter is one child of a CounterVec.
type LabeledCounter struct{ c *vecCounter }

// Add increments the child by n.
func (l *LabeledCounter) Add(n int64) { l.c.v.Add(n) }

// Inc increments the child by one.
func (l *LabeledCounter) Inc() { l.c.v.Add(1) }

// Value returns the child's current count.
func (l *LabeledCounter) Value() int64 { return l.c.v.Load() }

func (v *CounterVec) metricName() string { return v.name }

func (v *CounterVec) write(w *bufio.Writer) {
	header(w, v.name, v.help, "counter")
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, val := range v.order {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", v.name, v.label, val, v.children[val].v.Load())
	}
}

// --- gauge ---

// Gauge is a value that can go up and down, stored as a float64.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.lookup(name, func() metric { return &Gauge{name: name, help: help} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: %s is already registered as a %T, not a gauge", name, m))
	}
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by d; concurrent Adds all land.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) write(w *bufio.Writer) {
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.Value()))
}

// --- gauge func ---

// gaugeFunc samples a value at scrape time via a callback.
type gaugeFunc struct {
	name, help string

	mu sync.Mutex
	fn func() float64
}

// GaugeFunc registers a callback-backed gauge sampled at scrape time.
// Re-registering the same name replaces the callback — the newest owner
// of the underlying value (for instance the most recently constructed
// server) wins.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	m := r.lookup(name, func() metric { return &gaugeFunc{name: name, help: help} })
	g, ok := m.(*gaugeFunc)
	if !ok {
		panic(fmt.Sprintf("obs: %s is already registered as a %T, not a gauge func", name, m))
	}
	g.mu.Lock()
	g.fn = fn
	g.mu.Unlock()
}

func (g *gaugeFunc) metricName() string { return g.name }

func (g *gaugeFunc) write(w *bufio.Writer) {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	if fn == nil {
		return
	}
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(fn()))
}

// --- histogram ---

// Histogram is a fixed-bucket distribution with atomic bucket counts
// and an atomically accumulated sum. Buckets are cumulative only at
// exposition time; internally each count covers one interval, so
// Observe touches exactly one bucket.
type Histogram struct {
	name, help string
	label, lv  string // optional single label pair ("" = none)
	bounds     []float64
	counts     []atomic.Uint64 // len(bounds)+1; last = +Inf overflow
	sumBits    atomic.Uint64
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds (ascending; +Inf is implicit) if
// needed.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	m := r.lookup(name, func() metric { return newHistogram(name, help, "", "", buckets) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: %s is already registered as a %T, not a histogram", name, m))
	}
	return h
}

func newHistogram(name, help, label, lv string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = LatencyBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %s buckets are not ascending", name))
	}
	return &Histogram{
		name: name, help: help, label: label, lv: lv,
		bounds: buckets,
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Snapshot captures the histogram's current contents for offline
// quantile math and before/after diffing.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) of everything observed
// so far; see HistogramSnapshot.Quantile.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) write(w *bufio.Writer) {
	header(w, h.name, h.help, "histogram")
	h.writeSamples(w)
	clippedHeader(w, h.name)
	h.writeClipped(w)
}

// clippedHeader opens the counter family that goes with every histogram:
// name_clipped_total, the samples above its largest bound. A quantile
// that falls among them reads as that bound, so a non-zero value says the
// histogram's upper quantiles are underestimates.
func clippedHeader(w *bufio.Writer, name string) {
	header(w, name+"_clipped_total", "samples above the largest bucket bound of "+name, "counter")
}

func (h *Histogram) writeClipped(w *bufio.Writer) {
	labels := ""
	if h.label != "" {
		labels = fmt.Sprintf("{%s=%q}", h.label, h.lv)
	}
	fmt.Fprintf(w, "%s_clipped_total%s %d\n", h.name, labels, h.counts[len(h.bounds)].Load())
}

// writeSamples emits the cumulative bucket/sum/count lines (no header),
// shared with HistogramVec.
func (h *Histogram) writeSamples(w *bufio.Writer) {
	prefix := ""
	if h.label != "" {
		prefix = fmt.Sprintf("%s=%q,", h.label, h.lv)
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", h.name, prefix, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", h.name, prefix, cum)
	if h.label != "" {
		fmt.Fprintf(w, "%s_sum{%s=%q} %s\n", h.name, h.label, h.lv, formatFloat(math.Float64frombits(h.sumBits.Load())))
		fmt.Fprintf(w, "%s_count{%s=%q} %d\n", h.name, h.label, h.lv, cum)
	} else {
		fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(math.Float64frombits(h.sumBits.Load())))
		fmt.Fprintf(w, "%s_count %d\n", h.name, cum)
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 // shared, do not mutate
	Counts []uint64  // len(Bounds)+1
	Sum    float64
}

// Clipped returns the number of observations above the largest bound.
func (s HistogramSnapshot) Clipped() uint64 { return s.Counts[len(s.Bounds)] }

// Count returns the total number of observations.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Sub returns the distribution observed between the earlier snapshot
// old and this one, for scoping quantiles to one measured workload.
func (s HistogramSnapshot) Sub(old HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Bounds: s.Bounds, Counts: make([]uint64, len(s.Counts)), Sum: s.Sum - old.Sum}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] - old.Counts[i]
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation inside the bucket holding the target rank. Values in
// the +Inf overflow bucket report the largest finite bound — an
// underestimate, which Clipped (exported as _clipped_total) flags.
// Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// --- histogram vec ---

// HistogramVec is a family of histograms distinguished by one label,
// sharing bucket bounds.
type HistogramVec struct {
	name, help, label string
	bounds            []float64

	mu       sync.Mutex
	children map[string]*Histogram
	order    []string
}

// HistogramVec returns the one-label histogram family registered under
// name, creating it if needed.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	m := r.lookup(name, func() metric {
		if len(buckets) == 0 {
			buckets = LatencyBuckets
		}
		return &HistogramVec{name: name, help: help, label: label, bounds: buckets, children: make(map[string]*Histogram)}
	})
	v, ok := m.(*HistogramVec)
	if !ok {
		panic(fmt.Sprintf("obs: %s is already registered as a %T, not a histogram vec", name, m))
	}
	return v
}

// With returns the child histogram for one label value. Hold on to the
// result; the lookup takes the family lock.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[value]
	if !ok {
		h = newHistogram(v.name, v.help, v.label, value, v.bounds)
		v.children[value] = h
		v.order = append(v.order, value)
	}
	return h
}

func (v *HistogramVec) metricName() string { return v.name }

func (v *HistogramVec) write(w *bufio.Writer) {
	header(w, v.name, v.help, "histogram")
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, val := range v.order {
		v.children[val].writeSamples(w)
	}
	clippedHeader(w, v.name)
	for _, val := range v.order {
		v.children[val].writeClipped(w)
	}
}

// --- exposition helpers ---

func header(w *bufio.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, sanitizeHelp(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

func sanitizeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

// MS converts a duration to fractional milliseconds, the unit every
// JSON surface of the engine reports durations in.
func MS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
