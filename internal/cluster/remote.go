// remoteShard: one shard's replica set behind the shard.Searcher
// interface. The coordinator hands these to the same FanOutSearch /
// FanOutKNN engine the in-process database uses, so "cluster" differs
// from "single process" only in where each shard's answer is computed —
// never in how answers are merged.
//
// Each query starts on the shard's preferred replica, the first of the
// set (Place orders it), so the filtering and verification state a read
// leaves behind (the result memo, the invariants annotations, the range
// scratch) fills on one replica of each shard, not on all of them. Two
// escapes from a slow or dead replica walk on to the rest of the set:
//
//   - hedge: when the first attempt is still running after a delay
//     derived from the live search-RPC p95, the same query is issued to
//     the next replica; first success wins and the context cancel tears
//     down the loser's connection.
//   - failover: when an attempt fails outright, the next replica is
//     tried immediately and the failed peer is marked unreachable so
//     later queries order it last.
//
// Only when every replica has failed does the shard report
// ErrUnavailable — quorum loss, surfaced as HTTP 503.

package cluster

import (
	"context"
	"fmt"
	"time"

	"pis/internal/binio"
	"pis/internal/core"
	"pis/internal/graph"
	"pis/internal/obs"
)

type remoteShard struct {
	co       *Coordinator
	idx      int
	replicas []*peerState // the preferred replica first, then rendezvous rank
}

// SearchCtx implements shard.Searcher over the wire. Whether the query is
// traced does not cross the wire yet, so under a traced context the
// shard's span is a leaf: the RPC's wall time, hedges and failovers
// included.
func (r *remoteShard) SearchCtx(ctx context.Context, q *graph.Graph, sigma float64) (core.Result, error) {
	start := time.Now()
	req := apUv(nil, uint64(r.idx))
	req = apF64(req, sigma)
	req = apGraph(req, q)
	res, err := hedged(r, ctx, opSearch, req, readResult)
	if tr := obs.TraceFrom(ctx); tr != nil {
		sp := &obs.Span{Name: "search", DurationMS: obs.MS(time.Since(start))}
		sp.SetAttr("remote", true)
		tr.SetRoot(sp)
	}
	return res, err
}

// SearchKNNCtx implements shard.Searcher over the wire.
func (r *remoteShard) SearchKNNCtx(ctx context.Context, q *graph.Graph, k int, maxSigma float64) ([]core.Neighbor, error) {
	req := apUv(nil, uint64(r.idx))
	req = apUv(req, uint64(k))
	req = apF64(req, maxSigma)
	req = apGraph(req, q)
	return hedged(r, ctx, opKNN, req, readNeighbors)
}

// hedged runs one shard query against the replica set: launch the
// preferred replica, start a hedge timer, and from then on launch the
// next replica whenever the timer fires (slowness) or an attempt fails
// (failover). The first success wins; cancel() reaps every other
// in-flight attempt via its connection watchdog. The results channel is
// buffered to len(replicas), so losers never block on send and no
// goroutine outlives the call beyond its own RPC teardown.
func hedged[T any](r *remoteShard, ctx context.Context, op byte, req []byte, decode func(*binio.SectionReader) (T, error)) (T, error) {
	var zero T
	reps := upFirst(r.replicas)
	if len(reps) == 0 {
		return zero, fmt.Errorf("cluster: shard %d: %w", r.idx, ErrUnavailable)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type attempt struct {
		val   T
		err   error
		ps    *peerState
		hedge bool
	}
	results := make(chan attempt, len(reps))
	launched := 0
	launch := func(isHedge bool) {
		ps := reps[launched]
		launched++
		go func() {
			start := time.Now()
			var val T
			err := ps.call(cctx, op, req, func(sr *binio.SectionReader) error {
				v, derr := decode(sr)
				val = v
				return derr
			})
			if err == nil {
				mSearchRPCSeconds.ObserveSince(start)
			}
			results <- attempt{val: val, err: err, ps: ps, hedge: isHedge}
		}()
	}
	launch(false)

	var timerC <-chan time.Time
	if len(reps) > 1 {
		t := time.NewTimer(r.co.hedgeDelay())
		defer t.Stop()
		timerC = t.C
	}

	failures := 0
	var firstErr error
	for {
		select {
		case <-timerC:
			timerC = nil
			if launched < len(reps) {
				mHedges.Inc()
				launch(true)
			}
		case a := <-results:
			if a.err == nil {
				if a.hedge {
					mHedgeWins.Inc()
				}
				return a.val, nil
			}
			if cerr := ctx.Err(); cerr != nil {
				return zero, cerr // the caller gave up; not a replica's fault
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if _, remote := a.err.(*remoteError); !remote {
				a.ps.up.Store(false) // transport failure: deprioritize the peer
			}
			failures++
			if failures == len(reps) {
				mQuorumLost.Inc()
				return zero, fmt.Errorf("cluster: shard %d: %w (first failure: %v)", r.idx, ErrUnavailable, firstErr)
			}
			if launched < len(reps) {
				mFailovers.Inc()
				launch(false)
			}
		}
	}
}
