// Verification-result cache: the tier ahead of branch-and-bound. Verdicts
// are keyed by (canonical query code, segment-local graph id) and live on
// one Searcher, which is exactly one index generation — Compact builds a
// fresh Searcher (segment.compactLocked), Insert appends fresh never-
// reused local ids, and Delete only hides ids from the filter, so a
// cached verdict can never describe different graph contents than the
// live lookup. Isomorphic queries share a key (canon.GraphKey, the one
// the server's result cache uses), so repeated and re-ordered queries
// skip branch-and-bound entirely for every graph they have already been
// verified against.
//
// A verdict is (d, budget): Verifier.Distance(g, budget) returns the
// exact distance when d <= budget and Infinite otherwise, so
//
//   - d <= budget: d is exact and answers ANY sigma by direct comparison;
//   - d infinite:  only "distance > budget" is known, which answers
//     sigma <= budget and misses for larger radii (re-verified and the
//     entry upgraded to the larger budget).
//
// Capacity is bounded by two-generation rotation: when the current map
// fills, it becomes the previous generation and lookups fall through to
// it (promoting hits) until it rotates away. O(1), no LRU list, and the
// total entry count stays under the configured cap.
//
// A search talks to the cache twice, each time under one lock: lookupAll
// before branch-and-bound and putAll after it. The canonical query string
// is hashed once per call to find the query's number in each generation;
// per candidate the work is one probe of a map keyed by that number and
// the graph id. A query the cache has never seen costs lookupAll a single
// miss, whatever the candidate count.

package core

import (
	"sync"

	"pis/internal/distance"
)

// vcVerdict is one cached verification outcome at a known budget.
type vcVerdict struct {
	d      float64
	budget float64
}

// verifyCache is a bounded map from (query, graph) to verdicts. Safe for
// concurrent use; the zero value is unusable — use newVerifyCache.
type verifyCache struct {
	mu   sync.Mutex
	half int // rotation threshold: cur holds at most half, total <= 2*half
	// cur and prev are keyed by vcSlot of the query's number in that
	// generation; curQ and prevQ hold the numbering, so a query's string
	// lives exactly as long as a generation that has verdicts for it.
	cur, prev   map[uint64]vcVerdict
	curQ, prevQ map[string]uint32
}

func vcSlot(qn uint32, id int32) uint64 { return uint64(qn)<<32 | uint64(uint32(id)) }

func newVerifyCache(capacity int) *verifyCache {
	half := capacity / 2
	if half < 1 {
		half = 1
	}
	return &verifyCache{half: half, cur: make(map[uint64]vcVerdict), curQ: make(map[string]uint32)}
}

// vcQuery is one query resolved against both generations, good for as
// long as the lock it was resolved under is held.
type vcQuery struct {
	q             string
	curN, prevN   uint32
	inCur, inPrev bool
}

func (c *verifyCache) resolveLocked(q string) vcQuery {
	h := vcQuery{q: q}
	h.curN, h.inCur = c.curQ[q]
	h.prevN, h.inPrev = c.prevQ[q]
	return h
}

// lookupAll resolves the candidates cands[j], j in order, against the
// cache at radius sigma: a hit writes the distance to use (exact, or
// Infinite for a proven non-answer) to dists[j]; the misses are compacted
// to the front of order and returned with the hit count.
func (c *verifyCache) lookupAll(q string, sigma float64, cands, order []int32, dists []float64) (missed []int32, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.resolveLocked(q)
	if !h.inCur && !h.inPrev {
		return order, 0
	}
	missed = order[:0]
	for _, j := range order {
		if d, hit := c.lookupLocked(&h, cands[j], sigma); hit {
			dists[j] = d
			hits++
			continue
		}
		missed = append(missed, j)
	}
	return missed, hits
}

func (c *verifyCache) lookupLocked(h *vcQuery, id int32, sigma float64) (d float64, hit bool) {
	var v vcVerdict
	ok := false
	if h.inCur {
		v, ok = c.cur[vcSlot(h.curN, id)]
	}
	if !ok && h.inPrev {
		if v, ok = c.prev[vcSlot(h.prevN, id)]; ok {
			c.setLocked(h, id, v) // promote so rotation keeps hot entries
		}
	}
	if !ok {
		return 0, false
	}
	if !distance.IsInfinite(v.d) {
		// Exact distance known (it was within its budget): answers any
		// radius. Clamp to Infinite semantics at the call site instead of
		// here — the caller compares d <= sigma itself.
		return v.d, true
	}
	if sigma <= v.budget {
		return distance.Infinite, true
	}
	return 0, false // proven > budget, but the new radius asks farther
}

// setLocked stores v in the current generation, rotating first when it is
// full; h follows the rotation and gets a number in the new generation.
func (c *verifyCache) setLocked(h *vcQuery, id int32, v vcVerdict) {
	if len(c.cur) >= c.half {
		c.prev, c.prevQ = c.cur, c.curQ
		c.cur, c.curQ = make(map[uint64]vcVerdict, c.half), make(map[string]uint32)
		h.prevN, h.inPrev, h.inCur = h.curN, h.inCur, false
	}
	if !h.inCur {
		h.curN, h.inCur = uint32(len(c.curQ)), true
		c.curQ[h.q] = h.curN
	}
	c.cur[vcSlot(h.curN, id)] = v
}

// putAll records the outcomes dists[j] of verifying cands[j], j in order,
// at budget sigma.
func (c *verifyCache) putAll(q string, sigma float64, cands, order []int32, dists []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.resolveLocked(q)
	for _, j := range order {
		c.putLocked(&h, cands[j], dists[j], sigma)
	}
}

// putLocked records one verification outcome, never downgrading: an
// existing exact verdict stays, and a larger-budget Infinite replaces a
// smaller one but not the other way around.
func (c *verifyCache) putLocked(h *vcQuery, id int32, d, budget float64) {
	if h.inCur {
		if old, ok := c.cur[vcSlot(h.curN, id)]; ok {
			if !distance.IsInfinite(old.d) || (distance.IsInfinite(d) && budget <= old.budget) {
				return
			}
		}
	}
	c.setLocked(h, id, vcVerdict{d: d, budget: budget})
}
