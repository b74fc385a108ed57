package obs

import (
	"math"
	"runtime/metrics"
	"slices"
)

// ProcessStats is a point-in-time sample of Go runtime telemetry, the
// process-level block of /stats.
type ProcessStats struct {
	Goroutines     int     `json:"goroutines"`
	HeapBytes      uint64  `json:"heap_bytes"`
	GCCycles       uint64  `json:"gc_cycles"`
	GCPauseTotalMS float64 `json:"gc_pause_total_ms"`
}

var processSamples = []metrics.Sample{
	{Name: "/sched/goroutines:goroutines"},
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/pauses:seconds"},
}

// ReadProcessStats samples the runtime/metrics package. The GC pause
// total is estimated from the pause-duration histogram (count times
// bucket midpoint), which is accurate to within a bucket width.
func ReadProcessStats() ProcessStats {
	samples := slices.Clone(processSamples)
	metrics.Read(samples)
	u := func(i int) uint64 {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	out := ProcessStats{Goroutines: int(u(0)), HeapBytes: u(1), GCCycles: u(2)}
	if v := samples[3].Value; v.Kind() == metrics.KindFloat64Histogram {
		out.GCPauseTotalMS = histogramTotal(v.Float64Histogram()) * 1000
	}
	return out
}

// RegisterProcessMetrics registers scrape-time gauges exposing the Go
// runtime telemetry of ReadProcessStats on r, read once a scrape. Safe to
// call repeatedly.
func RegisterProcessMetrics(r *Registry) {
	r.GaugeGroup(func() []float64 {
		ps := ReadProcessStats()
		return []float64{float64(ps.Goroutines), float64(ps.HeapBytes), float64(ps.GCCycles), ps.GCPauseTotalMS / 1000}
	},
		GaugeSpec{"pis_goroutines", "Live goroutines in the process."},
		GaugeSpec{"pis_heap_bytes", "Bytes of live heap objects."},
		GaugeSpec{"pis_gc_cycles_total", "Completed GC cycles since process start."},
		GaugeSpec{"pis_gc_pause_seconds_total", "Estimated total stop-the-world GC pause time since process start."})
}

// histogramTotal estimates the sum of all observations in a
// runtime/metrics histogram as count x bucket midpoint.
func histogramTotal(h *metrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	var total float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo := h.Buckets[i]
		hi := h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		total += float64(c) * (lo + hi) / 2
	}
	return total
}
