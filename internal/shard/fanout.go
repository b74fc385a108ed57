// The fan-out/merge engine, factored over an interface so the same code
// drives local segments (a pis.Database) and remote shard replicas
// (package cluster): a Searcher is the query surface of one shard
// wherever it lives, and FanOutSearch / FanOutKNN are the exact fan-out
// and shrinking-radius merge. kNN shrinks its radius across shards: once
// k neighbors are in hand, no later shard is searched beyond the current
// k-th best distance. Because per-shard results carry global ids and
// verification is exact, the merged answer set is independent of where
// each shard's searcher executes — that invariance is what makes the
// "sharded ≡ unsharded" differential tests a correctness oracle for the
// cluster.

package shard

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"pis/internal/core"
	"pis/internal/graph"
	"pis/internal/obs"
)

// Searcher is the query surface of one shard, local or remote.
// *segment.Segment satisfies it directly; the cluster package's
// remote-shard client satisfies it over RPC (with replica failover and
// hedging hidden behind the same two calls).
type Searcher interface {
	// SearchCtx answers the SSSD query over this shard's live graphs,
	// returning global ids. On cancellation it returns the answers fully
	// verified so far (Stats.Partial set) with the context error. When
	// ctx carries an obs.Trace, the shard stores its span tree there.
	SearchCtx(ctx context.Context, q *graph.Graph, sigma float64) (core.Result, error)
	// SearchKNNCtx returns up to k nearest neighbors with global ids,
	// nearest first (ties by ascending id), searching no farther than
	// maxSigma.
	SearchKNNCtx(ctx context.Context, q *graph.Graph, k int, maxSigma float64) ([]core.Neighbor, error)
}

// FanOutSearch runs q against every shard concurrently and merges the
// per-shard results into one Result. Every shard inherits a derived
// context canceled as soon as any shard fails or the parent fires, so
// one sick shard frees its siblings instead of letting them finish work
// nobody will see. On failure the merged partial result (Stats.Partial
// set) is returned with the error of the shard that failed first — the
// root cause, not the context.Canceled its siblings then report; the
// parent context's own error wins when it fired.
//
// A single shard is called directly — no goroutine, no derived context,
// no merge copy — and under a traced context its span tree is the
// query's. With more shards a traced query's tree has one child per
// shard (each that shard's own tree; shards run concurrently, so their
// durations overlap and can sum past the root's wall time) and a merge
// span, under a root carrying the summed Stats of the merged result.
func FanOutSearch(ctx context.Context, shards []Searcher, q *graph.Graph, sigma float64) (core.Result, error) {
	if len(shards) == 1 {
		return shards[0].SearchCtx(ctx, q, sigma)
	}
	start := time.Now()
	tr := obs.TraceFrom(ctx)
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	parts := make([]core.Result, len(shards))
	traces := make([]*obs.Trace, len(shards)) // one collector per shard, when traced
	var wg sync.WaitGroup
	var failOnce sync.Once
	var first error
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh Searcher) {
			defer wg.Done()
			shctx := sctx
			if tr != nil {
				shctx, traces[i] = obs.WithTrace(sctx)
			}
			var err error
			if parts[i], err = sh.SearchCtx(shctx, q, sigma); err != nil {
				// Record before canceling: a sibling can only report the
				// cancellation after this error is already in place.
				failOnce.Do(func() { first = err })
				cancel()
			}
		}(i, sh)
	}
	wg.Wait()
	mergeStart := time.Now()
	r := core.MergeGlobal(parts)
	if tr != nil {
		mergeDur := time.Since(mergeStart)
		root := r.Stats.Trace(time.Since(start))
		// Replace the flat stage children with the per-shard trees: the
		// summed stage durations of concurrent shards do not nest inside
		// the root's wall interval, but each shard's own tree does.
		root.Children = root.Children[:0]
		for i, t := range traces {
			if sp := t.Root(); sp != nil {
				sp.Name = fmt.Sprintf("shard-%d", i)
				root.Children = append(root.Children, sp)
			}
		}
		root.Child("merge", obs.MS(mergeDur))
		root.SetAttr("shards", len(shards))
		tr.SetRoot(root)
	}
	if first == nil {
		return r, nil
	}
	// A sibling canceled by the fan-out reports context.Canceled even when
	// the root cause was a deadline on ctx.
	if cerr := ctx.Err(); cerr != nil {
		return r, cerr
	}
	return r, first
}

// FanOutKNN visits shards sequentially with a shrinking radius: shard 0
// is searched at maxSigma and, once k neighbors are in hand, each later
// shard no farther than the current k-th best distance. The merge keeps
// (distance, id) order. Canceled calls return the fully verified
// neighbors found so far with the error.
func FanOutKNN(ctx context.Context, shards []Searcher, q *graph.Graph, k int, maxSigma float64) ([]core.Neighbor, error) {
	if k <= 0 || maxSigma < 0 {
		return nil, nil
	}
	radius := maxSigma
	var best []core.Neighbor
	for _, sh := range shards {
		ns, err := sh.SearchKNNCtx(ctx, q, k, radius)
		if err != nil {
			return best, err
		}
		best = append(best, ns...)
		slices.SortFunc(best, core.NeighborOrder)
		best = best[:min(len(best), k)]
		if len(best) == k {
			radius = best[k-1].Distance
		}
	}
	return best, nil
}
