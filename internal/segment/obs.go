// Observability hooks: mutation and compaction activity feeds the
// shared metrics registry, and SearchTraced returns a span tree for one
// query alongside its result.

package segment

import (
	"time"

	"pis/internal/core"
	"pis/internal/graph"
	"pis/internal/obs"
)

var (
	mutationsTotal = obs.Default().CounterVec(
		"pis_mutations_total",
		"Accepted live mutations by operation (insert, delete).",
		"op")
	mInserts = mutationsTotal.With("insert")
	mDeletes = mutationsTotal.With("delete")

	mCompactions = obs.Default().Counter(
		"pis_compactions_total",
		"Completed segment compactions (delta and tombstones folded into a rebuilt base index).")
	mCompactErrors = obs.Default().Counter(
		"pis_compaction_errors_total",
		"Failed segment compactions; the segment keeps serving from its previous state.")
	mCompactSeconds = obs.Default().Histogram(
		"pis_compaction_seconds",
		"Wall time of segment compactions, including feature re-mining and the index rebuild.",
		obs.LatencyBuckets)
	mCompactedGraphs = obs.Default().Counter(
		"pis_compacted_graphs_total",
		"Graphs surviving into rebuilt bases across all compactions.")
)

// SearchTraced is Search plus a span tree describing where the query's
// time went. The tree is assembled from the Stats the pipeline collects
// anyway, so the only extra cost over Search is the tree allocation.
func (s *Segment) SearchTraced(q *graph.Graph, sigma float64) (core.Result, *obs.Span) {
	start := time.Now()
	sn := s.snapshot()
	r := sn.srch.SearchView(q, sigma, sn.view)
	sn.remap(&r)
	sp := r.Trace(time.Since(start))
	sp.SetAttr("delta_graphs", len(sn.view.Delta))
	if sn.view.Tombs != nil {
		sp.SetAttr("tombstoned_graphs", sn.view.Tombs.Count())
	}
	return r, sp
}
