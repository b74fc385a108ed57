package pis

// The query surface, written once. A Database fans out over the
// segments it holds and a ClusterNode over the cluster's remote shards,
// through the same two calls (shard.FanOutSearch, shard.FanOutKNN);
// everything a caller sees on top of them — the connectivity check,
// Options.QueryTimeout, the typed deadline error, the batch loop, the
// context-free forms and the traced form — is the querySurface both
// embed.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pis/internal/core"
	"pis/internal/obs"
	"pis/internal/shard"
)

// querySurface is the search API of Database and ClusterNode: the
// shards a query fans out over, local segments or remote replica sets.
type querySurface struct {
	shards       []shard.Searcher
	queryTimeout time.Duration
}

// queryContext applies Options.QueryTimeout to a caller context. The
// returned cancel must always be called.
func (s *querySurface) queryContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.queryTimeout > 0 {
		return context.WithTimeout(ctx, s.queryTimeout)
	}
	return ctx, func() {}
}

// wrapCtxErr converts a context error from a finished query into the
// package's typed errors: a deadline becomes ErrDeadlineExceeded (still
// matching context.DeadlineExceeded via errors.Is); plain cancellation
// passes through unchanged.
func wrapCtxErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	}
	return err
}

// rethrow is how the context-free forms report a failure: a recovered
// verification panic resurfaces with its original value, and any other
// error — under a background context only a cluster can produce one
// (ErrUnavailable, a failed RPC) — panics with its message.
func rethrow(err error) {
	core.Rethrow(err)
	if err != nil {
		panic(fmt.Sprintf("pis: %v", err))
	}
}

func mustBeConnected(q *Graph) {
	if q.N() == 0 || !q.Connected() {
		panic("pis: query graph must be non-empty and connected")
	}
}

// Search answers the SSSD query with the full PIS pipeline: find every
// graph containing Q's structure within superimposed distance sigma, on
// every shard, merged by global id. The query must be a connected graph
// with at least one vertex. Search takes no context and is never bounded
// by Options.QueryTimeout; on a ClusterNode it panics when some shard
// has no live replica — use SearchContext to handle ErrUnavailable.
func (s *querySurface) Search(q *Graph, sigma float64) Result {
	mustBeConnected(q)
	r, err := shard.FanOutSearch(context.Background(), s.shards, q, sigma)
	rethrow(err)
	return r
}

// SearchContext is Search under a context: cancellation and deadlines
// (from ctx or Options.QueryTimeout, whichever fires first) propagate
// into the pipeline and are honored at range-expansion and
// verification-task boundaries, so a canceled query returns within
// roughly one candidate verification; the first shard to fail cancels
// its siblings. On cancellation the error is the context's (a deadline
// is wrapped in ErrDeadlineExceeded) and the Result still carries every
// answer any shard fully verified before the cutoff, flagged with
// Stats.Partial — a correct subset of the complete answer set. On a
// ClusterNode the error is ErrUnavailable when some shard has no live
// replica. A nil error means the Result is complete.
func (s *querySurface) SearchContext(ctx context.Context, q *Graph, sigma float64) (Result, error) {
	mustBeConnected(q)
	qctx, cancel := s.queryContext(ctx)
	defer cancel()
	r, err := shard.FanOutSearch(qctx, s.shards, q, sigma)
	return r, wrapCtxErr(err)
}

// SearchTraced is SearchContext plus a span tree showing where the
// query's time went. Over one shard the root's children are the plan,
// filter and verify stages with the candidate-funnel counters as
// attributes; over several, one child per shard (each that shard's own
// stage tree; shards run concurrently, so sibling spans overlap in time)
// and a merge span. A ClusterNode's remote shards are leaves carrying
// the RPC's wall time. The tree is built from the Stats the pipeline
// collects anyway, so the overhead over SearchContext is one small
// allocation per stage. The span is nil only when the query failed
// before any shard answered.
func (s *querySurface) SearchTraced(ctx context.Context, q *Graph, sigma float64) (Result, *TraceSpan, error) {
	tctx, tr := obs.WithTrace(ctx)
	r, err := s.SearchContext(tctx, q, sigma)
	return r, tr.Root(), err
}

// SearchKNN returns the k database graphs nearest to q under the
// superimposed distance, closest first (ties by ascending id), searching
// no farther than maxSigma. Graphs not containing q's structure are
// never returned, so fewer than k results are possible. Shards are
// visited with a shrinking radius: after k neighbors are known, later
// shards are searched no farther than the current k-th best distance.
// Like Search it takes no context and panics on cluster failure.
func (s *querySurface) SearchKNN(q *Graph, k int, maxSigma float64) []Neighbor {
	mustBeConnected(q)
	ns, err := shard.FanOutKNN(context.Background(), s.shards, q, k, maxSigma)
	rethrow(err)
	return ns
}

// SearchKNNContext is SearchKNN under a context; see SearchContext for
// the cancellation contract. The returned neighbors are genuine (fully
// verified) but closer ones may be missing when err is non-nil.
func (s *querySurface) SearchKNNContext(ctx context.Context, q *Graph, k int, maxSigma float64) ([]Neighbor, error) {
	mustBeConnected(q)
	qctx, cancel := s.queryContext(ctx)
	defer cancel()
	ns, err := shard.FanOutKNN(qctx, s.shards, q, k, maxSigma)
	return ns, wrapCtxErr(err)
}

// SearchBatch answers many queries concurrently, each fanning out across
// all shards, with at most workers queries in flight (0 = GOMAXPROCS).
// Results align with queries; each query snapshots the database
// independently. Like Search it takes no context and panics on cluster
// failure.
func (s *querySurface) SearchBatch(queries []*Graph, sigma float64, workers int) []Result {
	out, err := s.searchBatch(context.Background(), queries, sigma, workers)
	rethrow(err)
	return out
}

// SearchBatchContext is SearchBatch under a context: one shared deadline
// covers the whole batch, queries not yet launched when the context
// fires are skipped (their Results stay zero), in-flight ones are
// canceled, and the first error is returned alongside whatever
// completed.
func (s *querySurface) SearchBatchContext(ctx context.Context, queries []*Graph, sigma float64, workers int) ([]Result, error) {
	qctx, cancel := s.queryContext(ctx)
	defer cancel()
	out, err := s.searchBatch(qctx, queries, sigma, workers)
	return out, wrapCtxErr(err)
}

func (s *querySurface) searchBatch(ctx context.Context, queries []*Graph, sigma float64, workers int) ([]Result, error) {
	for _, q := range queries {
		mustBeConnected(q)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]Result, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, q := range queries {
		if ctx.Err() != nil {
			errs[i] = ctx.Err()
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, q *Graph) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = shard.FanOutSearch(ctx, s.shards, q, sigma)
		}(i, q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
