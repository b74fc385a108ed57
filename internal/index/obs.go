// Observability hooks: index builds and per-fragment range queries feed
// the shared metrics registry.

package index

import "pis/internal/obs"

var (
	mRangeQueries = obs.Default().Counter(
		"pis_index_range_queries_total",
		"Per-fragment sigma range queries executed against the index.")
	mBuildSeconds = obs.Default().Histogram(
		"pis_index_build_seconds",
		"Wall time of full index builds (database creation and replica bootstrap; a compaction merges and is not one).",
		obs.LatencyBuckets)
	mBuildGraphs = obs.Default().Counter(
		"pis_index_built_graphs_total",
		"Graphs folded into the index across all builds.")
)
