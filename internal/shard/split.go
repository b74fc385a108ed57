// Package shard holds what a horizontally partitioned PIS database
// needs beyond its segments: Split, the contiguous ranges a database's
// graphs are cut into (pis.NewSharded at creation, a cluster node at
// bootstrap), and the fan-out/merge engine (fanout.go) that searches
// every shard, a local segment or a remote replica set, and stitches the
// per-shard results back together with global graph ids.
//
// Because PIS verification is exact, answers never depend on which
// features a shard's index holds (a store written before features were
// mined per database keeps each shard's own set): filtering quality may
// vary, answers do not. That is what makes the fan-out embarrassingly
// parallel and the merge a pure k-way interleave. The cost-based query
// planner works the same way: every shard plans its own fragment
// expansion against its own index's statistics, so a fragment may be
// expanded on one shard and skipped on another without affecting
// answers; merged Stats sum each shard's planning counters.
package shard

// Range is one contiguous shard slice [Start, End) of the database.
type Range struct{ Start, End int }

// Split divides n graphs into k contiguous ranges whose sizes differ by at
// most one. k is clamped to [1, n]; every range is non-empty.
func Split(n, k int) []Range {
	k = min(max(k, 1), n)
	out := make([]Range, k)
	for i := 0; i < k; i++ {
		out[i] = Range{Start: i * n / k, End: (i + 1) * n / k}
	}
	return out
}
