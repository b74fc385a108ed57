// Observability hooks: mutation, compaction and result-memo activity
// feeds the shared metrics registry.

package segment

import "pis/internal/obs"

var (
	mutationsTotal = obs.Default().CounterVec(
		"pis_mutations_total",
		"Accepted live mutations by operation (insert, delete).",
		"op")
	mInserts = mutationsTotal.With("insert")
	mDeletes = mutationsTotal.With("delete")

	mCompactions = obs.Default().Counter(
		"pis_compactions_total",
		"Completed segment compactions (delta and tombstones merged into a new base index).")
	mCompactErrors = obs.Default().Counter(
		"pis_compaction_errors_total",
		"Failed segment compactions; the segment keeps serving from its previous state.")
	mCompactSeconds = obs.Default().Histogram(
		"pis_compaction_seconds",
		"Wall time of segment compactions, each one index merge.",
		obs.LatencyBuckets)
	mCompactedGraphs = obs.Default().Counter(
		"pis_compacted_graphs_total",
		"Graphs surviving into new bases across all compactions.")
	mCompactCarried = obs.Default().Counter(
		"pis_compaction_carried_graphs_total",
		"Surviving graphs whose index entries compactions carried over from the outgoing index.")
	mCompactEnumerated = obs.Default().Counter(
		"pis_compaction_enumerated_graphs_total",
		"Surviving delta graphs whose fragments compactions enumerated.")

	memoLookups = obs.Default().CounterVec(
		"pis_result_memo_lookups_total",
		"Segment reads by what the result memo did: hit = answered from the read's own entry brought up to date, covered = answered from another read's entry of the same query that holds every answer, miss = no entry answers it, fallback = entry found but the full pipeline was cheaper or (kNN) a ranked neighbour was deleted.",
		"outcome")
	mMemoHit       = memoLookups.With("hit")
	mMemoMiss      = memoLookups.With("miss")
	mMemoFallback  = memoLookups.With("fallback")
	mMemoCovered   = memoLookups.With("covered")
	mMemoRefreshed = obs.Default().Counter(
		"pis_result_memo_refreshed_graphs_total",
		"Graphs verified by result-memo hits to catch up with inserts.")
	memoEvictions = obs.Default().CounterVec(
		"pis_result_memo_evictions_total",
		"Queries the result memos evicted to make room, by the list they left: probation = answered once and never read again, protected = read again, then lost to pressure.",
		"list")
	mMemoEvictions = [2]*obs.Counter{memoEvictions.With("probation"), memoEvictions.With("protected")}
	mMemoBytes     = obs.Default().Gauge(
		"pis_result_memo_bytes",
		"Bytes the result memos of this process's open segments account for.")
)
