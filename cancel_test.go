// Deadline and cancellation propagation through the public API: a
// canceled query must come back promptly with a typed error, whatever
// it returns must be a correct subset of the complete answer set, and
// sharded and unsharded databases must honor the same contract.

package pis_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"pis"
	"pis/internal/chem"
)

// answerSet indexes a complete result for subset checks.
func answerSet(r pis.Result) map[int32]float64 {
	m := make(map[int32]float64, len(r.Answers))
	for i, id := range r.Answers {
		m[id] = r.Distances[i]
	}
	return m
}

// assertSubset checks that every answer in partial appears in full with
// the same distance — the partial-result correctness contract: a cutoff
// may drop answers but never invent or mis-score one.
func assertSubset(t *testing.T, partial pis.Result, full map[int32]float64) {
	t.Helper()
	for i, id := range partial.Answers {
		d, ok := full[id]
		if !ok {
			t.Fatalf("partial result invented answer %d", id)
		}
		if partial.Distances[i] != d {
			t.Fatalf("answer %d distance %g, complete search says %g", id, partial.Distances[i], d)
		}
	}
}

func TestSearchContextPreCanceled(t *testing.T) {
	db, graphs := buildPublicDB(t, 120, pis.Options{})
	q := chem.SampleQueries(graphs, 1, 10, 3)[0]
	full := answerSet(db.Search(q, 2))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := db.SearchContext(ctx, q, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled search err = %v, want context.Canceled", err)
	}
	if !r.Stats.Partial {
		t.Fatal("canceled result not flagged Partial")
	}
	assertSubset(t, r, full)

	// A traced search obeys its context like any other, at any shard
	// count: the partial result, flagged, with the context's error.
	for _, nShards := range []int{1, 3} {
		sh, err := pis.NewSharded(graphs, nShards, pis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := sh.SearchTraced(ctx, q, 2)
		if !errors.Is(err, context.Canceled) || !r.Stats.Partial {
			t.Fatalf("shards=%d: pre-canceled traced search: err %v, partial %v", nShards, err, r.Stats.Partial)
		}
		assertSubset(t, r, full)
	}

	// KNN under a pre-canceled context.
	if _, err := db.SearchKNNContext(ctx, q, 3, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled kNN err = %v, want context.Canceled", err)
	}

	// An un-canceled context returns the complete result with no error.
	r2, err := db.SearchContext(context.Background(), q, 2)
	if err != nil || r2.Stats.Partial {
		t.Fatalf("background search: err=%v partial=%v", err, r2.Stats.Partial)
	}
	if len(r2.Answers) != len(full) {
		t.Fatalf("background search returned %d answers, want %d", len(r2.Answers), len(full))
	}
}

func TestQueryTimeoutReturnsTypedError(t *testing.T) {
	db, graphs := buildPublicDB(t, 120, pis.Options{QueryTimeout: time.Nanosecond})
	q := chem.SampleQueries(graphs, 1, 10, 4)[0]
	_, err := db.SearchContext(context.Background(), q, 2)
	if !errors.Is(err, pis.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v should still match context.DeadlineExceeded", err)
	}
	if _, err := db.SearchKNNContext(context.Background(), q, 3, 8); !errors.Is(err, pis.ErrDeadlineExceeded) {
		t.Fatalf("kNN err = %v, want ErrDeadlineExceeded", err)
	}
	if _, err := db.SearchBatchContext(context.Background(), []*pis.Graph{q}, 2, 0); !errors.Is(err, pis.ErrDeadlineExceeded) {
		t.Fatalf("batch err = %v, want ErrDeadlineExceeded", err)
	}
}

// TestCancelReturnsPromptly cancels mid-flight and requires the call to
// return within a small multiple of one verification task, not after
// finishing the whole candidate set.
func TestCancelReturnsPromptly(t *testing.T) {
	db, graphs := buildPublicDB(t, 400, pis.Options{})
	q := chem.SampleQueries(graphs, 1, 12, 5)[0]
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := db.SearchContext(ctx, q, 4)
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// Generous bound for loaded CI machines: the pipeline checks the
	// context every verify task and every 1024 branch-and-bound nodes,
	// so even slow verifications notice within milliseconds.
	if elapsed > 2*time.Second {
		t.Fatalf("canceled search took %v to return", elapsed)
	}
}

// TestCancelDifferentialShardedUnsharded cancels queries at random
// points on a one-shard database (flat: the direct call, no fan-out) and
// a three-shard one, untraced and traced, over the same graphs. Every
// outcome — complete or partial — must be a subset of the reference
// answer set, and completions must be exact.
func TestCancelDifferentialShardedUnsharded(t *testing.T) {
	graphs := chem.Generate(150, chem.Config{Seed: 11})
	flat, err := pis.New(graphs, pis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := pis.NewSharded(graphs, 3, pis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := chem.SampleQueries(graphs, 6, 10, 12)
	delays := []time.Duration{0, 50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond}
	for qi, q := range queries {
		full := answerSet(flat.SearchNaive(q, 2))
		for di, delay := range delays {
			for name, search := range map[string]func(context.Context) (pis.Result, error){
				"flat":    func(ctx context.Context) (pis.Result, error) { return flat.SearchContext(ctx, q, 2) },
				"sharded": func(ctx context.Context) (pis.Result, error) { return sharded.SearchContext(ctx, q, 2) },
				"traced": func(ctx context.Context) (pis.Result, error) {
					r, _, err := sharded.SearchTraced(ctx, q, 2)
					return r, err
				},
			} {
				ctx, cancel := context.WithTimeout(context.Background(), delay)
				r, err := search(ctx)
				cancel()
				switch {
				case err == nil:
					if len(r.Answers) != len(full) {
						t.Fatalf("q%d delay%d %s: complete search returned %d answers, want %d",
							qi, di, name, len(r.Answers), len(full))
					}
					assertSubset(t, r, full)
				case errors.Is(err, pis.ErrDeadlineExceeded) || errors.Is(err, context.Canceled):
					if !r.Stats.Partial {
						t.Fatalf("q%d delay%d %s: canceled result not flagged Partial", qi, di, name)
					}
					assertSubset(t, r, full)
				default:
					t.Fatalf("q%d delay%d %s: unexpected error %v", qi, di, name, err)
				}
			}
		}
	}
}

func TestShardedBatchContext(t *testing.T) {
	for _, nShards := range []int{1, 3} {
		testShardedBatchContext(t, nShards)
	}
}

func testShardedBatchContext(t *testing.T, nShards int) {
	graphs := chem.Generate(120, chem.Config{Seed: 13})
	sharded, err := pis.NewSharded(graphs, nShards, pis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := chem.SampleQueries(graphs, 4, 10, 14)
	rs, err := sharded.SearchBatchContext(context.Background(), queries, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain := sharded.SearchBatch(queries, 2, 2)
	for i := range queries {
		if len(rs[i].Answers) != len(plain[i].Answers) {
			t.Fatalf("query %d: ctx batch %d answers, plain batch %d", i, len(rs[i].Answers), len(plain[i].Answers))
		}
	}
	// A pre-canceled batch fails without running anything.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sharded.SearchBatchContext(ctx, queries, 2, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled batch err = %v", err)
	}
}
