package shard

import (
	"context"
	"errors"
	"testing"

	"pis/internal/core"
	"pis/internal/graph"
)

// fakeSearcher is a shard whose search is a function of its context.
type fakeSearcher func(ctx context.Context) error

func (f fakeSearcher) SearchCtx(ctx context.Context, _ *graph.Graph, _ float64) (core.Result, error) {
	return core.Result{}, f(ctx)
}

func (f fakeSearcher) SearchKNNCtx(ctx context.Context, _ *graph.Graph, _ int, _, _ float64) ([]core.Neighbor, error) {
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
