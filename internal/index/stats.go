// Per-class selectivity statistics for the cost-based query planner.
//
// The planner (core package) needs two numbers per query fragment before
// spending anything on its σ range query: how much of the candidate set
// the range query is likely to eliminate, and roughly what the probe
// costs. Both come from the class the fragment canonicalizes into:
//
//   - structural selectivity is free — the class bitmap's population
//     (Class.GraphCount) is exact;
//   - distance selectivity is summarized by a sampled histogram of
//     fragment-to-fragment superimposed distances among the class's
//     stored sequences. Query fragments are themselves fragments of
//     database-like graphs, so the pairwise distribution is a direct
//     estimate of P(d(q, f) <= σ) for a random stored fragment f;
//   - probe cost scales with the stored-sequence count times the number
//     of automorphism variants probed.
//
// Statistics are computed whenever an index is sealed — a build, or the
// merge a compaction runs (Rebase), which keeps the features but not the
// statistics — and again whenever an image is opened: images do not store
// them (the directory's slots for them read 0, and an older image's copy
// is never read). Sampling is fixed-stride over the sorted entries, never
// randomized, so Build, BuildParallel, Rebase and every open of the same
// index agree bit for bit.

package index

// statsHistBuckets buckets pair distances at integers 0..7; the last
// bucket absorbs everything at distance >= statsHistBuckets-1.
const statsHistBuckets = 9

// statsSamplePerClass caps the sequences sampled per class; all pairs
// among the sample are measured (at most 12·11/2 = 66 distances).
const statsSamplePerClass = 12

// ClassStats summarizes one class's selectivity for the query planner.
type ClassStats struct {
	// Sequences is the number of stored entries: distinct keys.
	Sequences int32
	// Pairs counts the sampled sequence pairs behind Hist; 0 means the
	// class stores fewer than two sampled sequences and carries no
	// distance signal.
	Pairs int32
	// Hist[d] counts sampled pairs whose superimposed fragment distance
	// lies in [d, d+1); the last bucket is open-ended.
	Hist [statsHistBuckets]int32
}

// InRangeFrac estimates P(d(q, f) <= sigma) for a random stored fragment
// f of this class — the planner's cold-start guess at the fraction of
// candidates that survive the fragment's σ range query. It counts
// distinct stored sequences, not the graphs that contain them, and knows
// nothing of what the prescreen already removed, so core replaces it by
// the survival rate it observes once the class's range query has run.
// With no distance signal (fewer than two
// sampled sequences) it returns the neutral prior 0.5: such classes are
// the cheapest possible probes (a single stored sequence) and can prune
// everything when the query's labels miss, so assuming they prune
// nothing would wrongly disable them; the planner's observed-gain stop
// ends the expansion if they turn out dry. Beyond the histogram's last
// bucket it returns 1 — at that radius essentially every stored
// fragment is in range and the range query cannot prune.
func (cs ClassStats) InRangeFrac(sigma float64) float64 {
	if cs.Pairs == 0 {
		return 0.5
	}
	if sigma >= statsHistBuckets-1 {
		return 1
	}
	hi := int(sigma) // sigma >= 0 in every caller
	cum := int32(0)
	for d := 0; d <= hi && d < statsHistBuckets; d++ {
		cum += cs.Hist[d]
	}
	return float64(cum) / float64(cs.Pairs)
}

// PlanStats returns the class's planner statistics.
func (c *Class) PlanStats() ClassStats { return c.stats }

// ProbeCost estimates the relative cost of one σ range query against this
// class: the scan prices every stored entry under every automorphism. The
// +1 keeps empty classes finite.
func (c *Class) ProbeCost() float64 {
	return float64(c.stats.Sequences)*float64(len(c.perms)) + 1
}

// computeStats fills every class's planner statistics from its entries.
func (x *Index) computeStats() {
	for _, c := range x.list {
		c.stats = x.classStats(c)
	}
}

// classStats is the statistics of class c: the pair histogram of at most
// statsSamplePerClass keys spread evenly over its entries.
func (x *Index) classStats(c *Class) ClassStats {
	es := &c.ents
	var keys [][]uint64
	n := es.n()
	for e := 0; e < n && len(keys) < statsSamplePerClass; e += sampleStride(n) {
		key := make([]uint64, es.keyLen)
		es.key(key, e)
		keys = append(keys, key)
	}
	return x.pairStats(c, keys, int32(n))
}

// sampleStride is the step that spreads at most statsSamplePerClass
// samples evenly over n items.
func sampleStride(n int) int {
	return max(1, (n+statsSamplePerClass-1)/statsSamplePerClass)
}

// pairStats histograms the fragment distance of every pair among the
// sampled keys.
func (x *Index) pairStats(c *Class, keys [][]uint64, sequences int32) ClassStats {
	cs := ClassStats{Sequences: sequences}
	for i := range keys {
		for _, other := range keys[i+1:] {
			b := statsHistBuckets - 1
			if d := x.orbitDistance(c, keys[i], other); d < float64(statsHistBuckets-1) {
				b = int(d)
			}
			cs.Hist[b]++
			cs.Pairs++
		}
	}
	return cs
}
