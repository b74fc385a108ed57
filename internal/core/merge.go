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
// into one Result. Unlike MergeShifted it does not assume shard id
// ranges are ordered: once a database is mutable, inserts routed to the
// smallest shard interleave the shards' id ranges, so the per-part
// sorted lists are k-way merged by id. Parts must be pairwise disjoint
// and ascending within each part. Stats are summed; Answers is non-nil
// iff it is non-nil in every part.
func MergeGlobal(parts []Result) Result {
	var out Result
	answered := true
	nAns, nCand := 0, 0
	for _, p := range parts {
		if p.Answers == nil {
			answered = false
		}
		nAns += len(p.Answers)
		nCand += len(p.Candidates)
	}
	if answered {
		out.Answers = make([]int32, 0, nAns)
		out.Distances = make([]float64, 0, nAns)
	}
	out.Candidates = make([]int32, 0, nCand)
	if answered {
		cur := make([]int, len(parts))
		for {
			best := -1
			var bestID int32
			for i, p := range parts {
				if cur[i] < len(p.Answers) {
					if id := p.Answers[cur[i]]; best < 0 || id < bestID {
						best, bestID = i, id
					}
				}
			}
			if best < 0 {
				break
			}
			out.Answers = append(out.Answers, bestID)
			out.Distances = append(out.Distances, parts[best].Distances[cur[best]])
			cur[best]++
		}
	}
	cur := make([]int, len(parts))
	for {
		best := -1
		var bestID int32
		for i, p := range parts {
			if cur[i] < len(p.Candidates) {
				if id := p.Candidates[cur[i]]; best < 0 || id < bestID {
					best, bestID = i, id
				}
			}
		}
		if best < 0 {
			break
		}
		out.Candidates = append(out.Candidates, bestID)
		cur[best]++
	}
	for _, p := range parts {
		out.Stats.Add(p.Stats)
	}
	return out
}
