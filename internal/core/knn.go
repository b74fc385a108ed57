// k-nearest-neighbor search over the superimposed distance, an extension
// beyond the paper's threshold queries: instead of "all graphs within σ",
// return "the k closest graphs". Implemented by progressive threshold
// expansion — run the PIS filter at a growing σ until at least k answers
// are inside, then return the k smallest distances. Every pass reuses the
// same index, and within a pass verification runs best-first across a
// worker pool with a shared shrinking radius (see searchKNNOnce), so the
// cost stays close to a single search at the final radius.

package core

import (
	"context"

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
// may hold fewer than k entries. startSigma seeds the expansion; pass 0
// for the metric-agnostic default (1, doubling).
func (s *Searcher) SearchKNN(q *graph.Graph, k int, startSigma, maxSigma float64) []Neighbor {
	return s.SearchKNNView(q, k, startSigma, maxSigma, View{})
}

// SearchKNNView is SearchKNN over a mutation snapshot: tombstoned graphs
// never surface, and live delta graphs compete for the k slots through
// the same shared shrinking radius as the indexed candidates.
func (s *Searcher) SearchKNNView(q *graph.Graph, k int, startSigma, maxSigma float64, view View) []Neighbor {
	ns, _, err := s.SearchKNNViewCtx(context.Background(), q, k, startSigma, maxSigma, view)
	Rethrow(err)
	return ns
}

// SearchKNNViewCtx is SearchKNNView under a context. Cancellation is
// checked between expansion passes and inside each pass's verification
// pool; a canceled call returns the context error with whatever
// neighbors were fully verified so far (they are genuine neighbors, but
// closer ones may be missing). A verification panic surfaces as a
// *PanicError. verified is the number of candidates the final pass
// verified: what the answer cost, for a caller deciding whether to keep it.
func (s *Searcher) SearchKNNViewCtx(ctx context.Context, q *graph.Graph, k int, startSigma, maxSigma float64, view View) (ns []Neighbor, verified int, err error) {
	if k <= 0 || maxSigma < 0 {
		return nil, 0, nil
	}
	if s.opts.SkipVerification {
		// kNN needs exact distances; run with verification regardless.
		opts := s.opts
		opts.SkipVerification = false
		s = NewSearcher(s.db, s.idx, opts)
	}
	done := ctx.Done()
	sigma := startSigma
	if sigma <= 0 {
		sigma = 1
	}
	if sigma > maxSigma {
		sigma = maxSigma
	}
	for {
		ns, verified, err = s.searchKNNOnce(q, k, sigma, view, done)
		if err != nil {
			return ns, verified, err
		}
		if cerr := ctx.Err(); cerr != nil {
			mQueriesCanceled.Inc()
			return ns, verified, cerr
		}
		if len(ns) >= k || sigma >= maxSigma {
			return ns, verified, nil
		}
		sigma *= 2
		if sigma > maxSigma {
			sigma = maxSigma
		}
	}
}
