package shard

import (
	"context"
	"errors"
	"slices"
	"testing"

	"pis/internal/core"
	"pis/internal/graph"
	"pis/internal/obs"
)

// fakeSearcher is a shard whose search is a function of its context.
type fakeSearcher func(ctx context.Context) error

func (f fakeSearcher) SearchCtx(ctx context.Context, _ *graph.Graph, _ float64) (core.Result, error) {
	return core.Result{}, f(ctx)
}

func (f fakeSearcher) SearchKNNCtx(ctx context.Context, _ *graph.Graph, _ int, _ float64) ([]core.Neighbor, error) {
	return nil, f(ctx)
}

// TestFanOutSearchReportsRootCause: shard 1 fails and thereby cancels
// shard 0, which reports context.Canceled; the caller must see shard 1's
// error, whatever the shard order. When the parent context itself fired,
// its error wins over anything a shard reports.
func TestFanOutSearchReportsRootCause(t *testing.T) {
	errSick := errors.New("shard unavailable")
	started := make(chan struct{})
	waits := fakeSearcher(func(ctx context.Context) error {
		started <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	})
	fails := fakeSearcher(func(context.Context) error {
		<-started // fail only once the sibling is in flight
		return errSick
	})
	for _, shards := range [][]Searcher{{waits, fails}, {fails, waits}} {
		if _, err := FanOutSearch(context.Background(), shards, nil, 1); !errors.Is(err, errSick) {
			t.Errorf("err = %v, want the failing shard's error", err)
		}
	}

	parent, cancel := context.WithCancel(context.Background())
	cancels := fakeSearcher(func(context.Context) error {
		<-started
		cancel()
		return errSick
	})
	if _, err := FanOutSearch(parent, []Searcher{waits, cancels}, nil, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want the parent context's error", err)
	}
}

// TestFanOutSearchTraceShape: under a traced context a single shard's
// span tree is the query's own; several shards each get a fresh
// collector and hang under the root as shard-i, followed by the merge. A
// shard that stored no tree is left out, and an untraced fan-out hands
// no collector down.
func TestFanOutSearchTraceShape(t *testing.T) {
	traced := fakeSearcher(func(ctx context.Context) error {
		if tr := obs.TraceFrom(ctx); tr != nil {
			tr.SetRoot(&obs.Span{Name: "search"})
		}
		return nil
	})
	silent := fakeSearcher(func(context.Context) error { return nil })

	ctx, tr := obs.WithTrace(context.Background())
	if _, err := FanOutSearch(ctx, []Searcher{traced}, nil, 1); err != nil {
		t.Fatal(err)
	}
	if sp := tr.Root(); sp == nil || sp.Name != "search" || len(sp.Children) != 0 {
		t.Fatalf("one shard: root %+v, want the shard's own span", sp)
	}

	ctx, tr = obs.WithTrace(context.Background())
	if _, err := FanOutSearch(ctx, []Searcher{traced, silent, traced}, nil, 1); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range tr.Root().Children {
		names = append(names, c.Name)
	}
	if want := []string{"shard-0", "shard-2", "merge"}; !slices.Equal(names, want) || tr.Root().Attrs["shards"] != 3 {
		t.Fatalf("three shards: children %v attrs %v, want %v and shards=3", names, tr.Root().Attrs, want)
	}

	untraced := fakeSearcher(func(ctx context.Context) error {
		if obs.TraceFrom(ctx) != nil {
			t.Error("an untraced fan-out handed a shard a trace collector")
		}
		return nil
	})
	if _, err := FanOutSearch(context.Background(), []Searcher{untraced, untraced}, nil, 1); err != nil {
		t.Fatal(err)
	}
}

// knnShard is a shard that records the (k, maxσ) of each kNN call and
// answers with canned neighbors.
type knnShard struct {
	ns    []core.Neighbor
	calls *[][2]float64
}

func (s knnShard) SearchCtx(context.Context, *graph.Graph, float64) (core.Result, error) {
	return core.Result{}, nil
}

func (s knnShard) SearchKNNCtx(_ context.Context, _ *graph.Graph, k int, maxSigma float64) ([]core.Neighbor, error) {
	*s.calls = append(*s.calls, [2]float64{float64(k), maxSigma})
	return s.ns, nil
}

// TestFanOutKNNRadiusHandoff: shard 0 is searched at the caller's maxσ,
// which stays the radius while fewer than k neighbors are in hand; from
// then on each shard gets the current k-th distance. The merge keeps
// (distance, id) order, ties across shards broken by ascending id.
func TestFanOutKNNRadiusHandoff(t *testing.T) {
	var calls [][2]float64
	shard := func(ns ...core.Neighbor) Searcher { return knnShard{ns: ns, calls: &calls} }
	got, err := FanOutKNN(context.Background(), []Searcher{
		shard(core.Neighbor{ID: 10, Distance: 2}),                                      // 1 of 3: radius stays 5
		shard(core.Neighbor{ID: 4, Distance: 1}),                                       // 2 of 3: radius stays 5
		shard(core.Neighbor{ID: 7, Distance: 2}, core.Neighbor{ID: 30, Distance: 3.5}), // k in hand: radius 2
		shard(),                                  // none: radius stays 2
		shard(core.Neighbor{ID: 1, Distance: 2}), // ties 7 and 10, lower id: radius stays 2
		shard(core.Neighbor{ID: 2, Distance: 0}), // 3rd is still 2
		shard(core.Neighbor{ID: 3, Distance: 1}), // ties 4, lower id: radius 1
		shard(),
	}, nil, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantCalls := [][2]float64{{3, 5}, {3, 5}, {3, 5}, {3, 2}, {3, 2}, {3, 2}, {3, 2}, {3, 1}}
	if !slices.Equal(calls, wantCalls) {
		t.Errorf("shards received (k, maxσ) %v, want %v", calls, wantCalls)
	}
	want := []core.Neighbor{{ID: 2, Distance: 0}, {ID: 3, Distance: 1}, {ID: 4, Distance: 1}}
	if !slices.Equal(got, want) {
		t.Errorf("merged %v, want %v", got, want)
	}
}
