// Observability hooks: every inter-node RPC feeds a per-peer latency
// histogram and error counter, the hedging engine counts hedges fired,
// hedge wins, and failovers, and the health loop publishes per-peer
// replica lag plus the up-peer count. The hedge-delay control loop reads
// its own p95 back out of the search-RPC histogram, so the delay tracks
// whatever the cluster's real tail looks like this minute.

package cluster

import "pis/internal/obs"

var (
	mRPCSeconds = obs.Default().HistogramVec(
		"pis_cluster_rpc_seconds",
		"Inter-node RPC round-trip latency by peer (successful calls).",
		"peer", obs.LatencyBuckets)
	mRPCErrors = obs.Default().CounterVec(
		"pis_cluster_rpc_errors_total",
		"Inter-node RPCs that failed (dial, transport, or remote error) by peer; a cancelled call is not a failure.",
		"peer")
	mSearchRPCSeconds = obs.Default().Histogram(
		"pis_cluster_search_rpc_seconds",
		"Per-shard search/kNN RPC latency across all peers; its p95 drives the hedge delay.",
		obs.LatencyBuckets)

	mHedges = obs.Default().Counter(
		"pis_cluster_hedges_total",
		"Hedged requests launched: a shard query re-issued to another replica after the p95-derived delay.")
	mHedgeWins = obs.Default().Counter(
		"pis_cluster_hedge_wins_total",
		"Hedged requests whose second copy answered first (the original was canceled).")
	mFailovers = obs.Default().Counter(
		"pis_cluster_failovers_total",
		"Shard queries re-issued to another replica after an error (not a hedge: the first copy already failed).")
	mQuorumLost = obs.Default().Counter(
		"pis_cluster_unavailable_total",
		"Shard queries that failed on every live replica (surfaced as 503).")

	mPeersUp = obs.Default().Gauge(
		"pis_cluster_peers_up",
		"Peers currently reachable and serving (stale peers awaiting rejoin excluded).")
	mReplicaLag = obs.Default().GaugeVec(
		"pis_cluster_replica_lag_records",
		"Mutations the peer's most-behind shard replica trails the freshest replica by (-1 = peer unreachable).",
		"peer")
)
