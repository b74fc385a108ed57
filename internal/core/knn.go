// k-nearest-neighbor search over the superimposed distance, an extension
// beyond the paper's threshold queries: instead of "all graphs within σ",
// return "the k closest graphs". It is the threshold pipeline run once at
// the largest radius asked for, with a verification budget that shrinks
// to the k-th smallest distance found so far (see verify), as a metric
// index answers kNN by a range query whose radius shrinks to the current
// k-th distance.

package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"pis/internal/graph"
)

// Neighbor is one kNN result.
type Neighbor struct {
	ID       int32
	Distance float64
}

// SearchKNN returns the k database graphs with the smallest superimposed
// distance to q, nearest first (ties broken by ascending id). maxSigma
// bounds the search radius: graphs farther than maxSigma — including every
// graph not containing q's structure — are never returned, so the result
// may hold fewer than k entries.
func (s *Searcher) SearchKNN(q *graph.Graph, k int, maxSigma float64) []Neighbor {
	ns, _, err := s.SearchKNNViewCtx(context.Background(), q, k, maxSigma, View{})
	Rethrow(err)
	return ns
}

// SearchKNNViewCtx is SearchKNN over a mutation snapshot, under a
// context: tombstoned graphs never surface, and live delta graphs compete
// for the k slots through the same shrinking budget as the indexed
// candidates. It is the threshold pipeline of SearchViewCtx at maxSigma,
// whose verification budget shrinks to the k-th distance once k are
// known, with the answers ordered by (distance, id) and cut to k. A
// canceled call returns the context error with the neighbors fully
// verified so far (they are genuine neighbors, but closer ones may be
// missing). A verification panic surfaces as a *PanicError. verified is
// the number of candidates verified: what the answer cost, for a caller
// deciding whether to keep it. Unlike SearchViewCtx it publishes no query
// metrics.
func (s *Searcher) SearchKNNViewCtx(ctx context.Context, q *graph.Graph, k int, maxSigma float64, view View) (ns []Neighbor, verified int, err error) {
	if k <= 0 || maxSigma < 0 {
		return nil, 0, nil
	}
	r, err := s.search(ctx, q, maxSigma, k, view)
	ns = make([]Neighbor, len(r.Answers))
	for i, id := range r.Answers {
		ns[i] = Neighbor{ID: id, Distance: r.Distances[i]}
	}
	slices.SortFunc(ns, NeighborOrder)
	return ns[:min(len(ns), k)], r.Stats.Verified, err
}

// NeighborOrder orders neighbors nearest first, ties by ascending id.
func NeighborOrder(a, b Neighbor) int {
	return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ID, b.ID))
}

// kthBound is a kNN query's shrinking verification budget: σ until k
// distances are known, then the k-th smallest of them. It only shrinks,
// so a graph within the final k-th distance is verified exactly under
// every budget it meets.
type kthBound struct {
	k    int
	mu   sync.Mutex
	best []float64 // the smallest distances seen, ascending, at most k
	bits atomic.Uint64
}

func newKthBound(k int, sigma float64) *kthBound {
	b := &kthBound{k: k}
	b.bits.Store(math.Float64bits(sigma))
	return b
}

func (b *kthBound) budget() float64 { return math.Float64frombits(b.bits.Load()) }

// observe records one exact distance.
func (b *kthBound) observe(d float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i := sort.SearchFloat64s(b.best, d)
	if i >= b.k {
		return
	}
	b.best = slices.Insert(b.best, i, d)
	if len(b.best) >= b.k {
		b.best = b.best[:b.k]
		b.bits.Store(math.Float64bits(b.best[b.k-1]))
	}
}
