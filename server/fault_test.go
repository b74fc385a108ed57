// Robustness tests for the HTTP layer: admission control sheds with 429
// instead of queueing unboundedly, a disconnecting client frees its
// in-flight slot and stops its query, a panicking backend becomes a 500
// instead of a dead process, and a poisoned store degrades to read-only
// with honest health reporting.

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"pis"
)

// blockingBackend parks SearchContext until the gate opens or the
// caller's context dies, then delegates to the real backend (so the
// pipeline's cancellation accounting still runs).
type blockingBackend struct {
	Backend
	entered  chan struct{}
	gate     chan struct{}
	canceled chan struct{} // optional: signaled when a blocked call sees ctx.Done
}

func (b *blockingBackend) SearchContext(ctx context.Context, q *pis.Graph, sigma float64) (pis.Result, error) {
	b.entered <- struct{}{}
	select {
	case <-b.gate:
	case <-ctx.Done():
		if b.canceled != nil {
			select {
			case b.canceled <- struct{}{}:
			default:
			}
		}
	}
	return b.Backend.SearchContext(ctx, q, sigma)
}

// startBlockedSearch occupies the server's single in-flight slot and
// returns once the backend has been entered.
func startBlockedSearch(t *testing.T, ts string, bb *blockingBackend, q *pis.Graph, done chan<- int) {
	t.Helper()
	go func() {
		done <- postJSON(t, ts+"/search", SearchRequest{Query: EncodeGraph(q), Sigma: 1}, nil)
	}()
	select {
	case <-bb.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first search never reached the backend")
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	_, db := testEnv(t)
	bb := &blockingBackend{Backend: db, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	ts := newTestServer(t, Config{Backend: bb, MaxInFlight: 1, MaxQueue: -1})
	shedBefore := mShed.Value()

	done := make(chan int, 1)
	startBlockedSearch(t, ts.URL, bb, sampleQuery(t, 41), done)

	// The slot is held and there is no queue: shed immediately.
	body := marshalJSON(t, SearchRequest{Query: EncodeGraph(sampleQuery(t, 42)), Sigma: 1})
	resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed request got %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if got := mShed.Value(); got != shedBefore+1 {
		t.Fatalf("pis_shed_total advanced by %d, want 1", got-shedBefore)
	}

	close(bb.gate)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("blocked search finished with %d after release", st)
	}
}

func TestAdmissionQueueWaitTimeout(t *testing.T) {
	_, db := testEnv(t)
	bb := &blockingBackend{Backend: db, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	ts := newTestServer(t, Config{Backend: bb, MaxInFlight: 1, MaxQueue: 4, QueueWait: 10 * time.Millisecond})
	shedBefore := mShed.Value()

	done := make(chan int, 1)
	startBlockedSearch(t, ts.URL, bb, sampleQuery(t, 43), done)

	// This one is admitted to the queue but the slot never frees within
	// QueueWait: shed with 429 rather than waiting forever.
	start := time.Now()
	st := postJSON(t, ts.URL+"/search", SearchRequest{Query: EncodeGraph(sampleQuery(t, 44)), Sigma: 1}, nil)
	if st != http.StatusTooManyRequests {
		t.Fatalf("queued request got %d, want 429", st)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("queue-wait shed took implausibly long")
	}
	if got := mShed.Value(); got != shedBefore+1 {
		t.Fatalf("pis_shed_total advanced by %d, want 1", got-shedBefore)
	}

	close(bb.gate)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("blocked search finished with %d after release", st)
	}
}

// TestClientDisconnectFreesSlot cancels a request mid-query: the
// backend must observe the cancellation (counted in
// pis_queries_canceled_total), the in-flight slot must free so the next
// query runs, and nothing deadlocks under MaxInFlight=1.
func TestClientDisconnectFreesSlot(t *testing.T) {
	_, db := testEnv(t)
	bb := &blockingBackend{
		Backend:  db,
		entered:  make(chan struct{}, 2),
		gate:     make(chan struct{}),
		canceled: make(chan struct{}, 1),
	}
	ts := newTestServer(t, Config{Backend: bb, MaxInFlight: 1})
	_, before, _ := getBody(t, ts.URL+"/metrics")
	canceledBefore := metricValue(t, before, "pis_queries_canceled_total")

	ctx, cancel := context.WithCancel(context.Background())
	body := marshalJSON(t, SearchRequest{Query: EncodeGraph(sampleQuery(t, 45)), Sigma: 1})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/search", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	select {
	case <-bb.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("search never reached the backend")
	}
	cancel() // client hangs up mid-query
	if err := <-errc; err == nil {
		t.Fatal("canceled request reported success")
	}
	// The server notices the hangup asynchronously (its background read
	// sees the closed connection); wait until the blocked handler has
	// actually observed ctx.Done before opening the gate, or the handler
	// could wake via the gate with a still-live context and run the query
	// to completion uncanceled.
	select {
	case <-bb.canceled:
	case <-time.After(10 * time.Second):
		t.Fatal("server never observed the client disconnect")
	}

	// Open the gate so the follow-up request passes straight through the
	// blocking wrapper; the canceled one already returned via ctx.Done.
	close(bb.gate)

	// The slot freed and the next query executes normally.
	var sr SearchResponse
	if st := postJSON(t, ts.URL+"/search", SearchRequest{Query: EncodeGraph(sampleQuery(t, 46)), Sigma: 1}, &sr); st != http.StatusOK {
		t.Fatalf("follow-up search got %d; slot not released", st)
	}
	_, after, _ := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, after, "pis_queries_canceled_total"); got < canceledBefore+1 {
		t.Fatalf("pis_queries_canceled_total = %v, want >= %v", got, canceledBefore+1)
	}
}

// panicBackend explodes inside query execution, standing in for any
// future pipeline bug.
type panicBackend struct{ Backend }

func (p panicBackend) SearchContext(ctx context.Context, q *pis.Graph, sigma float64) (pis.Result, error) {
	panic("backend exploded")
}

func TestHandlerPanicIsolated(t *testing.T) {
	_, db := testEnv(t)
	ts := newTestServer(t, Config{Backend: panicBackend{db}})
	panicsBefore := mHTTPPanics.Value()

	st := postJSON(t, ts.URL+"/search", SearchRequest{Query: EncodeGraph(sampleQuery(t, 47)), Sigma: 1}, nil)
	if st != http.StatusInternalServerError {
		t.Fatalf("panicking search got %d, want 500", st)
	}
	if got := mHTTPPanics.Value(); got != panicsBefore+1 {
		t.Fatalf("pis_panics_total{site=http} advanced by %d, want 1", got-panicsBefore)
	}
	// The process survived: other routes keep answering.
	if st, _, _ := getBody(t, ts.URL+"/healthz"); st != http.StatusOK {
		t.Fatalf("healthz after panic: %d", st)
	}
}

// TestQueryTimeoutMapsTo504: a query past its deadline answers 504 on
// every query route — a traced search like any other — and leaves no
// goroutine running.
func TestQueryTimeoutMapsTo504(t *testing.T) {
	graphs, _ := testEnv(t)
	for _, shards := range []int{1, 2} {
		db, err := pis.NewSharded(graphs, shards, pis.Options{MaxFragmentEdges: 4, QueryTimeout: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		ts := newTestServer(t, Config{Backend: db})
		search := SearchRequest{Query: EncodeGraph(sampleQuery(t, 48)), Sigma: 1}
		if st := postJSON(t, ts.URL+"/search", search, nil); st != http.StatusGatewayTimeout {
			t.Fatalf("shards=%d: timed-out search got %d, want 504", shards, st)
		}
		// Idle keep-alive connections hold goroutines on both ends; drop
		// them so the count compares the queries' own goroutines.
		http.DefaultClient.CloseIdleConnections()
		before := runtime.NumGoroutine()
		for i := 0; i < 4; i++ {
			if st := postJSON(t, ts.URL+"/search?trace=1", search, nil); st != http.StatusGatewayTimeout {
				t.Fatalf("shards=%d: timed-out traced search got %d, want 504", shards, st)
			}
		}
		if st := postJSON(t, ts.URL+"/knn", KNNRequest{Query: EncodeGraph(sampleQuery(t, 49)), K: 2, MaxSigma: 4}, nil); st != http.StatusGatewayTimeout {
			t.Fatalf("shards=%d: timed-out knn got %d, want 504", shards, st)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			http.DefaultClient.CloseIdleConnections()
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("shards=%d: %d goroutines after the timed-out queries, %d before", shards, n, before)
		}
	}
}

// poisonedBackend models a store that hit a disk fault: mutations are
// rejected with pis.ErrStorePoisoned, reads keep working.
type poisonedBackend struct{ Backend }

func (p poisonedBackend) Stats() pis.Stats {
	st := p.Backend.Stats()
	st.Durability = pis.DurabilityStats{Durable: true, Poisoned: true, PoisonReason: "wal fsync: injected fault"}
	return st
}

func (p poisonedBackend) Insert(g *pis.Graph) (int32, error) {
	return -1, fmt.Errorf("wal append: %w", pis.ErrStorePoisoned)
}

func (p poisonedBackend) Delete(id int32) (bool, error) {
	return false, fmt.Errorf("wal append: %w", pis.ErrStorePoisoned)
}

func TestPoisonedStoreDegradesReadOnly(t *testing.T) {
	_, db := testEnv(t)
	ts := newTestServer(t, Config{Backend: poisonedBackend{db}})

	// Liveness stays 200 (the node still answers queries) but the body
	// says degraded, and /stats carries the poison reason.
	st, body, _ := getBody(t, ts.URL+"/healthz")
	if st != http.StatusOK {
		t.Fatalf("healthz on poisoned store: %d, must stay 200", st)
	}
	if !strings.Contains(body, "degraded") || !strings.Contains(body, "injected fault") {
		t.Fatalf("healthz body %q does not report degradation", body)
	}
	var stats ServerStats
	if st := getJSON(t, ts.URL+"/stats", &stats); st != http.StatusOK {
		t.Fatalf("stats: %d", st)
	}
	if stats.Durability == nil || !stats.Durability.Poisoned || stats.Durability.PoisonReason == "" {
		t.Fatalf("stats durability does not surface poisoning: %+v", stats.Durability)
	}

	// Mutations answer 503 read-only; queries still answer 200.
	if st := postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: EncodeGraph(sampleQuery(t, 50))}, nil); st != http.StatusServiceUnavailable {
		t.Fatalf("insert on poisoned store got %d, want 503", st)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("delete on poisoned store got %d, want 503", resp.StatusCode)
	}
	if st := postJSON(t, ts.URL+"/search", SearchRequest{Query: EncodeGraph(sampleQuery(t, 51)), Sigma: 1}, nil); st != http.StatusOK {
		t.Fatalf("search on poisoned store got %d, want 200", st)
	}

	// Strict health opts into 503 per request...
	st, body, _ = getBody(t, ts.URL+"/healthz?strict=1")
	if st != http.StatusServiceUnavailable {
		t.Fatalf("healthz?strict=1 on poisoned store: %d, want 503", st)
	}
	if !strings.Contains(body, "degraded") {
		t.Fatalf("strict healthz body %q lost the degradation reason", body)
	}
}

// TestHealthzStrictOnHealthyStore: strict mode fails only a degraded node; a
// healthy store answers ?strict=1 with 200.
func TestHealthzStrictOnHealthyStore(t *testing.T) {
	_, db := testEnv(t)
	healthy := newTestServer(t, Config{Backend: db})
	if st, body, _ := getBody(t, healthy.URL+"/healthz?strict=1"); st != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("strict healthz on healthy store: %d %q, want 200 ok", st, body)
	}
}

// marshalJSON is a tiny helper for tests that need the raw body string
// (to set headers or contexts postJSON does not expose).
func marshalJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
