// Package obs is the engine's dependency-free observability kernel: a
// metrics registry of atomic counters, gauges, and fixed-bucket
// histograms with Prometheus text-format export, plus the span-tree and
// query-log types the per-query tracing pipeline is built from.
//
// Every layer of the engine — core search stages, index range queries,
// segment compactions, WAL appends in the store, HTTP routes in the
// server — records into the shared Default registry. GET /metrics
// renders it, the benchmark in bench/ reads its numbers back from there,
// and /stats reads its memo, compaction and observability blocks out of
// it. The requests, mutations and planner blocks of /stats are not read
// from the registry: each Server counts those itself (endpointMetrics,
// countMutation and recordPlan in package server), so they cover one
// server where the registry's series cover the process.
//
// Design constraints, in order:
//
//   - Cheap on the hot path. A counter Add is one atomic add; a
//     histogram Observe is a branch-free bucket search over a small
//     fixed bound slice plus two atomic adds. No locks, no maps, no
//     allocation after registration.
//   - One family per name. A name registers one family: a kind, one
//     label, and a child per label value in creation order. An
//     unlabeled metric is its family's one child, the value "".
//     Registering a name again returns the existing family (a kind or
//     label mismatch panics), so package-level metric variables and
//     repeatedly constructed servers share one instrument the way
//     Prometheus client libraries do. GaugeGroup re-registration
//     rebinds its gauges to the new callback: the newest owner of a
//     scrape-time value wins.
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

// metric is one registered family; write emits its exposition lines.
type metric interface{ write(w *scrape) }

// scrape is one exposition pass: its writer, and the values of each gauge
// group sampled so far, so a group's callback runs once a scrape.
type scrape struct {
	*bufio.Writer
	groups map[*gaugeGroup][]float64
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

// WritePrometheus renders every registered metric in text exposition
// format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]metric(nil), r.ordered...)
	r.mu.Unlock()
	sc := &scrape{Writer: bufio.NewWriter(w), groups: make(map[*gaugeGroup][]float64)}
	for _, m := range ms {
		m.write(sc)
	}
	return sc.Flush()
}

// --- families ---

// instrument is a family's child type. sample writes the child's sample
// lines; pair is its label pair (label="value"), empty in an unlabeled
// family.
type instrument interface {
	*Counter | *Gauge | *Histogram | *grouped
	sample(w *scrape, name, pair string)
}

// family is one named metric of one kind: its help text, exposition
// type, one label ("" for an unlabeled metric, whose one child has the
// value "") and its children in creation order.
type family[C instrument] struct {
	name, help, typ, label string
	newChild               func() C

	mu       sync.Mutex
	index    map[string]int // label value -> position in values and children
	values   []string
	children []C
}

// register returns the family registered under name, creating it if
// needed. Registering a name again returns the existing family, so
// package-level metric variables and repeatedly constructed servers
// share one instrument; a name already registered as another kind or
// with another label panics, because two packages disagree about what
// the metric is.
func register[C instrument](r *Registry, name, help, typ, label string, newChild func() C) *family[C] {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		f, ok := m.(*family[C])
		if !ok || f.label != label {
			panic(fmt.Sprintf("obs: %s is already registered as another kind, or with a label other than %q", name, label))
		}
		return f
	}
	f := &family[C]{name: name, help: help, typ: typ, label: label, newChild: newChild, index: make(map[string]int)}
	r.byName[name] = f
	r.ordered = append(r.ordered, f)
	return f
}

// With returns the child for one label value, creating it if needed.
// Hold on to the result; the lookup takes the family lock.
func (f *family[C]) With(value string) C {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, ok := f.index[value]
	if !ok {
		i = len(f.children)
		f.index[value] = i
		f.values = append(f.values, value)
		f.children = append(f.children, f.newChild())
	}
	return f.children[i]
}

// write emits the family's header and its children's samples. A
// histogram family is followed by the counter family name_clipped_total,
// the samples above its largest bound: a quantile that falls among them
// reads as that bound, so a non-zero value says the histogram's upper
// quantiles are underestimates.
func (f *family[C]) write(w *scrape) {
	f.mu.Lock()
	values, children := f.values, f.children // append-only: the prefix is stable
	f.mu.Unlock()
	header(w, f.name, f.help, f.typ)
	for i, c := range children {
		c.sample(w, f.name, f.pair(values[i]))
	}
	if f.typ != "histogram" {
		return
	}
	header(w, f.name+"_clipped_total", "samples above the largest bucket bound of "+f.name, "counter")
	for i, c := range children {
		h := any(c).(*Histogram)
		fmt.Fprintf(w, "%s_clipped_total%s %d\n", f.name, braces(f.pair(values[i])), h.counts[len(h.bounds)].Load())
	}
}

// pair renders one child's label pair, or "" in an unlabeled family.
func (f *family[C]) pair(value string) string {
	if f.label == "" {
		return ""
	}
	return fmt.Sprintf("%s=%q", f.label, value)
}

// braces wraps a label pair into a label set; no pair, no set.
func braces(pair string) string {
	if pair == "" {
		return ""
	}
	return "{" + pair + "}"
}

// CounterVec is a family of counters distinguished by one label.
type CounterVec struct{ *family[*Counter] }

// GaugeVec is a family of gauges distinguished by one label, for values
// that exist per peer, shard or resource and are discovered at runtime.
type GaugeVec = family[*Gauge]

// HistogramVec is a family of histograms distinguished by one label,
// sharing bucket bounds.
type HistogramVec = family[*Histogram]

// Counter returns the unlabeled counter registered under name, creating
// it if needed. Counter names should end in _total.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help, "").With("")
}

// CounterVec returns the one-label counter family registered under
// name, creating it if needed.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{register(r, name, help, "counter", label, func() *Counter { return new(Counter) })}
}

// Value returns the current count for one label value: 0, and no new
// series, when the child was never created.
func (v *CounterVec) Value(value string) int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if i, ok := v.index[value]; ok {
		return v.children[i].Value()
	}
	return 0
}

// Gauge returns the unlabeled gauge registered under name, creating it
// if needed.
func (r *Registry) Gauge(name, help string) *Gauge { return r.GaugeVec(name, help, "").With("") }

// GaugeVec returns the one-label gauge family registered under name,
// creating it if needed.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return register(r, name, help, "gauge", label, func() *Gauge { return new(Gauge) })
}

// GaugeSpec names one gauge of a GaugeGroup.
type GaugeSpec struct{ Name, Help string }

// GaugeGroup registers scrape-time gauges read from one source: a scrape
// calls sample once, at the first of the gauges it writes, and writes
// sample's i-th value as gauges[i]. Registering a name again rebinds it
// to the new group — the newest owner of the underlying value (for
// instance the most recently constructed server) wins.
func (r *Registry) GaugeGroup(sample func() []float64, gauges ...GaugeSpec) {
	grp := &gaugeGroup{sample: sample}
	for i, spec := range gauges {
		c := register(r, spec.Name, spec.Help, "gauge", "", func() *grouped { return &grouped{grp: grp, i: i} }).With("")
		c.mu.Lock()
		c.grp, c.i = grp, i
		c.mu.Unlock()
	}
}

// Histogram returns the unlabeled histogram registered under name,
// creating it with the given bucket upper bounds (ascending; +Inf is
// implicit; nil means LatencyBuckets) if needed.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, "", buckets).With("")
}

// HistogramVec returns the one-label histogram family registered under
// name, creating it with the given bucket bounds if needed.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	if len(buckets) == 0 {
		buckets = LatencyBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %s buckets are not ascending", name))
	}
	return register(r, name, help, "histogram", label, func() *Histogram {
		return &Histogram{bounds: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
	})
}

// --- instruments ---

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be >= 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) sample(w *scrape, name, pair string) {
	fmt.Fprintf(w, "%s%s %d\n", name, braces(pair), c.v.Load())
}

// Gauge is a value that can go up and down, stored as a float64.
type Gauge struct{ bits atomic.Uint64 }

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

func (g *Gauge) sample(w *scrape, name, pair string) {
	fmt.Fprintf(w, "%s%s %s\n", name, braces(pair), formatFloat(g.Value()))
}

// gaugeGroup is one GaugeGroup registration's callback.
type gaugeGroup struct{ sample func() []float64 }

// grouped is one gauge of a group: the group's i-th value.
type grouped struct {
	mu  sync.Mutex
	grp *gaugeGroup
	i   int
}

func (g *grouped) sample(w *scrape, name, pair string) {
	g.mu.Lock()
	grp, i := g.grp, g.i
	g.mu.Unlock()
	vals, ok := w.groups[grp]
	if !ok {
		vals = grp.sample()
		w.groups[grp] = vals
	}
	fmt.Fprintf(w, "%s%s %s\n", name, braces(pair), formatFloat(vals[i]))
}

// Histogram is a fixed-bucket distribution with atomic bucket counts
// and an atomically accumulated sum. Buckets are cumulative only at
// exposition time; internally each count covers one interval, so
// Observe touches exactly one bucket.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last = +Inf overflow
	sumBits atomic.Uint64
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

// sample emits the cumulative bucket, sum and count lines; the bucket
// bound joins the child's label pair inside one label set.
func (h *Histogram) sample(w *scrape, name, pair string) {
	prefix := ""
	if pair != "" {
		prefix = pair + ","
	}
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, prefix, formatFloat(le), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braces(pair), formatFloat(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braces(pair), cum)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 // shared, do not mutate
	Counts []uint64  // len(Bounds)+1
	Sum    float64
}

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
// underestimate, which the _clipped_total counter flags.
// Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	rank := min(max(q, 0), 1) * float64(total)
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

// --- exposition helpers ---

func header(w io.Writer, name, help, typ string) {
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
