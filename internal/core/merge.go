// Result and Stats merging for sharded search. A sharded database runs
// the PIS pipeline per shard and stitches the per-shard outcomes —
// already carrying global graph ids — back into one Result by k-way
// merge over the per-shard sorted lists.

package core

// Add accumulates another query's counters into s. Counts sum; durations
// sum as well, so on a fan-out the totals read as aggregate CPU time
// across shards, not wall-clock time.
func (s *Stats) Add(o Stats) {
	s.QueryFragments += o.QueryFragments
	s.UsedFragments += o.UsedFragments
	s.ExpandedFragments += o.ExpandedFragments
	s.PartitionSize += o.PartitionSize
	s.StructCandidates += o.StructCandidates
	s.RangeCandidates += o.RangeCandidates
	s.DistCandidates += o.DistCandidates
	s.PrescreenRejects += o.PrescreenRejects
	s.InvariantRejects += o.InvariantRejects
	s.VerifyCacheHits += o.VerifyCacheHits
	s.Verified += o.Verified
	s.VerifyNodes += o.VerifyNodes
	s.MemoHits += o.MemoHits
	s.Refreshed += o.Refreshed
	s.PlanTime += o.PlanTime
	s.FilterTime += o.FilterTime
	s.VerifyTime += o.VerifyTime
	s.Partial = s.Partial || o.Partial
}

// MergeGlobal stitches per-shard results that already carry global ids
// into one Result. Shard id ranges need not be ordered: once a database
// is mutable, inserts routed to the smallest shard interleave the shards'
// id ranges, so the per-part sorted lists are k-way merged by id. Parts
// must be pairwise disjoint and ascending within each part. Stats are
// summed; Answers is non-nil iff it is non-nil in every part.
func MergeGlobal(parts []Result) Result {
	var out Result
	answered := true
	nAns, nCand := 0, 0
	for _, p := range parts {
		answered = answered && p.Answers != nil
		nAns += len(p.Answers)
		nCand += len(p.Candidates)
		out.Stats.Add(p.Stats)
	}
	if answered {
		out.Answers, out.Distances = make([]int32, 0, nAns), make([]float64, 0, nAns)
		mergeByID(parts, func(p *Result) []int32 { return p.Answers }, func(p *Result, j int) {
			out.Answers = append(out.Answers, p.Answers[j])
			out.Distances = append(out.Distances, p.Distances[j])
		})
	}
	out.Candidates = make([]int32, 0, nCand)
	mergeByID(parts, func(p *Result) []int32 { return p.Candidates }, func(p *Result, j int) {
		out.Candidates = append(out.Candidates, p.Candidates[j])
	})
	return out
}

// mergeByID calls emit(p, j) for every position j of ids(p) over every
// part p, in ascending id order.
func mergeByID(parts []Result, ids func(*Result) []int32, emit func(*Result, int)) {
	cur := make([]int, len(parts))
	for {
		best, bestID := -1, int32(0)
		for i := range parts {
			if l := ids(&parts[i]); cur[i] < len(l) && (best < 0 || l[cur[i]] < bestID) {
				best, bestID = i, l[cur[i]]
			}
		}
		if best < 0 {
			return
		}
		emit(&parts[best], cur[best])
		cur[best]++
	}
}
