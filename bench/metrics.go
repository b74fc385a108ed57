package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; a test keeps the two in step.
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a user of the served system sees. Every workload
// reports every one of them, so the kNN and mutation round trips, which
// only two workloads have, are per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"search_p50_ms", "ms"},
	{"search_p95_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"knn_p50_ms", "ms"},
	{"mutation_mean_ms", "ms"},
	{"search_p99_ms", "ms"},
	{"search_max_ms", "ms"},
	{"loadgen.segment_rps_spread", "ratio"},
	{"http.overhead_ms_p50", "ms"},
	{"server.self_ms_mean", "ms"},
	{"server.result_cache_hit_rate", "ratio"},
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"core.plan_ms_mean", "ms"},
	{"core.filter_ms_mean", "ms"},
	{"core.verify_ms_mean", "ms"},
	{"core.filter_share", "ratio"},
	{"core.verify_share", "ratio"},
	{"core.struct_candidates_mean", "count"},
	{"core.range_candidates_mean", "count"},
	{"core.dist_candidates_mean", "count"},
	{"core.prescreen_rejects_mean", "count"},
	{"core.verify_cache_hits_mean", "count"},
	{"core.verified_mean", "count"},
	{"core.expanded_fragments_mean", "count"},
	{"core.answers_mean", "count"},
	{"core.verified_per_answer", "ratio"},
	{"iso.verify_us_per_candidate", "us"},
	{"index.range_queries_per_search", "count"},
	{"index.range_query_heap_us", "us"},
	{"index.range_query_mapped_us", "us"},
	{"index.bytes", "B"},
	{"setup.generate_s", "s"},
	{"setup.build_s", "s"},
	{"setup.open_s", "s"},
	{"setup.warmup_s", "s"},
	{"segment.compactions", "count"},
	{"segment.compact_s_total", "s"},
	{"segment.delta_graphs_max", "count"},
	{"segment.insert_ms_p50", "ms"},
	{"segment.delete_ms_p50", "ms"},
	{"store.wal_appends", "count"},
	{"store.wal_fsync_ms_mean", "ms"},
	{"store.wal_bytes_per_insert", "B"},
	{"store.snapshot_s_total", "s"},
	{"store.reopen_s", "s"},
	{"shard.merge_us_mean", "us"},
	{"cluster.search_rpc_ms_mean", "ms"},
	{"cluster.rpcs_per_search", "count"},
	{"cluster.hedges_per_search", "count"},
	{"cluster.hedge_win_rate", "ratio"},
	{"cluster.failovers", "count"},
	{"cluster.rpc_errors", "count"},
	{"cluster.replica_lag_max", "count"},
	{"runtime.alloc_kb_per_req", "KiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.heap_mb_end", "MiB"},
	{"trace.budget_residual_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"trace.client_self_ms_mean", "ms"},
	{"trace.search_self_ms_mean", "ms"},
	{"trace.plan_self_ms_mean", "ms"},
	{"trace.filter_self_ms_mean", "ms"},
	{"trace.verify_self_ms_mean", "ms"},
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile is the nearest-rank p-quantile of xs. It refuses (ok false)
// when fewer than minBeyond samples lie beyond the rank, since such a
// figure is mostly noise.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p*float64(n))) - 1
	rank = min(max(rank, 0), n-1)
	return sorted[rank], n-1-rank >= minBeyond
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when there is nothing to divide by: a layer that a
// workload never exercises reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
