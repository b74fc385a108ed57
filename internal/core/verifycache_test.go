package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Single-verdict adapters over the batch interface of verifyCache, for the
// unit tests that pin its rotation and budget rules one key at a time.

type vcKey struct {
	q  string // canonical query key
	id int32  // segment-local graph id
}

func (c *verifyCache) lookup(k vcKey, sigma float64) (d float64, hit bool) {
	dists := []float64{0}
	_, hits := c.lookupAll(k.q, sigma, []int32{k.id}, []int32{0}, dists)
	return dists[0], hits == 1
}

func (c *verifyCache) put(k vcKey, d, budget float64) {
	c.putAll(k.q, budget, []int32{k.id}, []int32{0}, []float64{d})
}

// TestVerifyCacheConcurrentBatches: searches hit the cache from many
// goroutines while it rotates under them. Every verdict is a function of
// (query, graph), so whatever a batch lookup returns must be that value —
// a query number surviving its generation would hand one query another's
// verdicts — and the two generations together stay within capacity.
func TestVerifyCacheConcurrentBatches(t *testing.T) {
	const capacity, queries, graphs = 64, 12, 40
	c := newVerifyCache(capacity)
	verdict := func(q, id int) float64 { return float64(q*1000 + id) }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			cands := make([]int32, graphs)
			for i := range cands {
				cands[i] = int32(i)
			}
			for iter := 0; iter < 400; iter++ {
				q := rng.Intn(queries)
				key := fmt.Sprint("query-", q)
				order := make([]int32, 0, graphs)
				for i := 0; i < graphs; i++ {
					if rng.Intn(2) == 0 {
						order = append(order, int32(i))
					}
				}
				dists := make([]float64, graphs)
				for i := range dists {
					dists[i] = -1
				}
				asked := len(order)
				missed, hits := c.lookupAll(key, 5, cands, order, dists)
				if hits+len(missed) != asked {
					t.Errorf("%d hits + %d misses for %d candidates", hits, len(missed), asked)
					return
				}
				isMiss := map[int32]bool{}
				for _, j := range missed {
					isMiss[j] = true
					dists[j] = verdict(q, int(j)) // "verify" it
				}
				for j, d := range dists {
					if d >= 0 && d != verdict(q, j) {
						t.Errorf("query %d graph %d: cache returned %v, want %v", q, j, d, verdict(q, j))
						return
					}
					if d >= 0 && !isMiss[int32(j)] {
						hits--
					}
				}
				if hits != 0 {
					t.Errorf("hit count off by %d", hits)
					return
				}
				c.putAll(key, 5, cands, missed, dists)
				c.mu.Lock()
				n, nq := len(c.cur)+len(c.prev), len(c.curQ)+len(c.prevQ)
				c.mu.Unlock()
				if n > capacity || nq > n {
					t.Errorf("%d verdicts and %d query strings cached with capacity %d", n, nq, capacity)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
