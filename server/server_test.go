package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pis"
	"pis/gen"
)

var (
	envOnce   sync.Once
	envGraphs []*pis.Graph
	envDB     *pis.Database
)

// testEnv builds one small sharded database shared by all tests (the
// backend is read-only; each test gets its own Server).
func testEnv(t *testing.T) ([]*pis.Graph, *pis.Database) {
	t.Helper()
	envOnce.Do(func() {
		envGraphs = gen.Molecules(40, gen.Config{Seed: 23})
		db, err := pis.NewSharded(envGraphs, 3, pis.Options{MaxFragmentEdges: 4})
		if err != nil {
			t.Fatal(err)
		}
		envDB = db
	})
	if envDB == nil {
		t.Fatal("environment build failed")
	}
	return envGraphs, envDB
}

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	_, db := testEnv(t)
	if cfg.Backend == nil {
		cfg.Backend = db
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, req, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if resp != nil && r.StatusCode == http.StatusOK {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
	return r.StatusCode
}

func getJSON(t *testing.T, url string, resp any) int {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if resp != nil && r.StatusCode == http.StatusOK {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
	return r.StatusCode
}

func sampleQuery(t *testing.T, seed int64) *pis.Graph {
	t.Helper()
	graphs, _ := testEnv(t)
	return gen.Queries(graphs, 1, 8, seed)[0]
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", r.StatusCode)
	}
}

func TestSearchEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	_, db := testEnv(t)
	q := sampleQuery(t, 2)
	want := db.Search(q, 2)

	var resp SearchResponse
	if code := postJSON(t, ts.URL+"/search", SearchRequest{Query: EncodeGraph(q), Sigma: 2}, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !reflect.DeepEqual(resp.Answers, want.Answers) {
		t.Errorf("answers %v, want %v", resp.Answers, want.Answers)
	}
	// The direct Search above already answered this query on the shared
	// backend, so the HTTP run is a hit of every shard's result memo: all
	// answers are carried over and nothing is verified.
	if st := resp.Stats; !st.MemoHit || st.VerifyCacheHits != len(resp.Answers) || st.Verified != 0 {
		t.Errorf("repeat of an identical query was not answered from the result memos: %+v", st)
	}
}

func TestKNNEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	_, db := testEnv(t)
	q := sampleQuery(t, 3)
	want := db.SearchKNN(q, 3, 8)

	var resp KNNResponse
	if code := postJSON(t, ts.URL+"/knn", KNNRequest{Query: EncodeGraph(q), K: 3, MaxSigma: 8}, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Neighbors) != len(want) {
		t.Fatalf("%d neighbors, want %d", len(resp.Neighbors), len(want))
	}
	for i, n := range want {
		if resp.Neighbors[i].ID != n.ID || resp.Neighbors[i].Distance != n.Distance {
			t.Errorf("neighbor %d: %+v, want %+v", i, resp.Neighbors[i], n)
		}
	}

	// A second identical kNN request, answered from the result memos,
	// returns the same neighbours.
	var again KNNResponse
	postJSON(t, ts.URL+"/knn", KNNRequest{Query: EncodeGraph(q), K: 3, MaxSigma: 8}, &again)
	if !reflect.DeepEqual(again.Neighbors, resp.Neighbors) {
		t.Error("repeated kNN differs from the first")
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	graphs, db := testEnv(t)
	queries := gen.Queries(graphs, 4, 8, 5)
	req := BatchRequest{Sigma: 1.5}
	for _, q := range queries {
		req.Queries = append(req.Queries, EncodeGraph(q))
	}
	var resp BatchResponse
	if code := postJSON(t, ts.URL+"/batch", req, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != len(queries) {
		t.Fatalf("%d results, want %d", len(resp.Results), len(queries))
	}
	for i, q := range queries {
		want := db.Search(q, 1.5)
		if !reflect.DeepEqual(resp.Results[i].Answers, want.Answers) {
			t.Errorf("query %d: %v, want %v", i, resp.Results[i].Answers, want.Answers)
		}
	}

	// A /search for one of the batch queries hits the memos the batch
	// filled.
	var sr SearchResponse
	postJSON(t, ts.URL+"/search", SearchRequest{Query: EncodeGraph(queries[0]), Sigma: 1.5}, &sr)
	if !sr.Stats.MemoHit || !reflect.DeepEqual(sr.Answers, resp.Results[0].Answers) {
		t.Errorf("search after a batch with the same query and sigma: memo hit %v, answers %v; want a hit answering %v",
			sr.Stats.MemoHit, sr.Answers, resp.Results[0].Answers)
	}
}

// TestBatchRunsDistinctQueriesOnce: a batch that repeats queries, some
// under another vertex order, executes one backend search per distinct
// canonical query and fans the response out to every position.
func TestBatchRunsDistinctQueriesOnce(t *testing.T) {
	graphs := gen.Molecules(40, gen.Config{Seed: 78})
	db, err := pis.New(graphs, pis.Options{MaxFragmentEdges: 4}) // one segment: one execution = one pis_queries_total
	if err != nil {
		t.Fatal(err)
	}
	for _, cacheSize := range []int{64, 0} {
		s, err := New(Config{Backend: db, CacheSize: cacheSize})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		defer ts.Close()
		two := gen.Queries(graphs, 2, 7, int64(90+cacheSize)) // fresh queries per round
		req := BatchRequest{Sigma: 1}
		for i := 0; i < 8; i++ {
			q := two[i%3%2] // 0 1 0 0 1 0 0 1
			if i >= 4 {
				q = shuffledCopy(q, int64(i))
			}
			req.Queries = append(req.Queries, EncodeGraph(q))
		}
		_, before, _ := getBody(t, ts.URL+"/metrics")
		var resp BatchResponse
		if code := postJSON(t, ts.URL+"/batch", req, &resp); code != 200 {
			t.Fatalf("status %d", code)
		}
		_, after, _ := getBody(t, ts.URL+"/metrics")
		const series = `pis_queries_total{method="pis"}`
		if got := metricValue(t, after, series) - metricValue(t, before, series); got != 2 {
			t.Errorf("cache %d: a batch of 8 drawn from 2 queries executed %v backend searches, want 2", cacheSize, got)
		}
		for i, r := range resp.Results {
			want := db.SearchNaive(two[i%3%2], 1)
			if !reflect.DeepEqual(r.Answers, want.Answers) || r.Cached {
				t.Errorf("cache %d, position %d: answers %v cached=%v, want %v executed", cacheSize, i, r.Answers, r.Cached, want.Answers)
			}
		}
	}
}

// workersBackend records the workers of the last SearchBatchContext.
type workersBackend struct {
	Backend
	got *atomic.Int64
}

func (b workersBackend) SearchBatchContext(ctx context.Context, queries []*pis.Graph, sigma float64, workers int) ([]pis.Result, error) {
	b.got.Store(int64(workers))
	return b.Backend.SearchBatchContext(ctx, queries, sigma, workers)
}

// TestBatchCapsWorkers: a /batch holds one admission slot, so it runs
// at most GOMAXPROCS queries at once whatever workers it asks for, and 0
// means GOMAXPROCS.
func TestBatchCapsWorkers(t *testing.T) {
	graphs, db := testEnv(t)
	var got atomic.Int64
	ts := newTestServer(t, Config{Backend: workersBackend{db, &got}})
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ ask, want int }{{4096, procs}, {0, procs}, {1, 1}} {
		req := BatchRequest{Sigma: 1, Workers: c.ask, Queries: []GraphJSON{EncodeGraph(gen.Queries(graphs, 1, 4, 5)[0])}}
		if code := postJSON(t, ts.URL+"/batch", req, nil); code != 200 {
			t.Fatalf("workers %d: status %d", c.ask, code)
		}
		if w := int(got.Load()); w != c.want {
			t.Errorf("a batch asking for %d workers ran %d, want %d", c.ask, w, c.want)
		}
	}
}

func TestGraphsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	graphs, _ := testEnv(t)
	var gj GraphJSON
	if code := getJSON(t, ts.URL+"/graphs/5", &gj); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(gj.Vertices) != graphs[5].N() || len(gj.Edges) != graphs[5].M() {
		t.Errorf("graph 5: %d vertices / %d edges, want %d / %d",
			len(gj.Vertices), len(gj.Edges), graphs[5].N(), graphs[5].M())
	}
	// Round-trip through the codec preserves the structure.
	back, err := DecodeGraph(gj)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != graphs[5].N() || back.M() != graphs[5].M() {
		t.Error("decode(encode) changed the graph size")
	}
	if code := getJSON(t, ts.URL+"/graphs/99999", nil); code != http.StatusNotFound {
		t.Errorf("out-of-range id: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/graphs/banana", nil); code != http.StatusNotFound {
		t.Errorf("non-numeric id: status %d, want 404", code)
	}
}

// TestCacheHitViaStats drives the acceptance path: a second identical
// query is answered from every shard's result memo, observable in the
// response and in the /stats memo counters.
func TestCacheHitViaStats(t *testing.T) {
	ts := newTestServer(t, Config{})
	q := sampleQuery(t, 7)
	req := SearchRequest{Query: EncodeGraph(q), Sigma: 2}

	var st0 ServerStats
	getJSON(t, ts.URL+"/stats", &st0)
	var first, second SearchResponse
	postJSON(t, ts.URL+"/search", req, &first)
	postJSON(t, ts.URL+"/search", req, &second)
	if first.Stats.MemoHit {
		t.Error("first request must miss")
	}
	if !second.Stats.MemoHit || second.Stats.Verified != 0 {
		t.Errorf("second identical request: %+v; want a memo hit that verifies nothing", second.Stats)
	}
	if !reflect.DeepEqual(first.Answers, second.Answers) {
		t.Error("memoised answers differ")
	}

	var st ServerStats
	if code := getJSON(t, ts.URL+"/stats", &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	// Three shards: three lookups per search. The counters are
	// process-wide, hence deltas.
	if hits, misses := st.Memo.Hits-st0.Memo.Hits, st.Memo.Misses-st0.Memo.Misses; hits != 3 || misses != 3 {
		t.Errorf("memo counters advanced by hits=%d misses=%d, want 3/3", hits, misses)
	}
	if st.Graphs != 40 || st.Shards != 3 {
		t.Errorf("stats graphs=%d shards=%d, want 40/3", st.Graphs, st.Shards)
	}
	if st.Requests["search"].Count != 2 {
		t.Errorf("search request count %d, want 2", st.Requests["search"].Count)
	}
	if st.Requests["search"].TotalMS <= 0 {
		t.Error("search timing should be recorded")
	}
}

// shuffledCopy rebuilds g with its vertices in a different order — an
// isomorphic graph that is not byte-identical on the wire.
func shuffledCopy(g *pis.Graph, seed int64) *pis.Graph {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(g.N()) // perm[old] = new
	b := pis.NewGraphBuilder(g.N(), g.M())
	inv := make([]int, g.N())
	for old, nw := range perm {
		inv[nw] = old
	}
	for nw := 0; nw < g.N(); nw++ {
		b.AddWeightedVertex(g.VLabelAt(inv[nw]), g.VWeightAt(inv[nw]))
	}
	for e := 0; e < g.M(); e++ {
		ed := g.EdgeAt(e)
		b.AddWeightedEdge(int32(perm[ed.U]), int32(perm[ed.V]), ed.Label, ed.Weight)
	}
	return b.MustBuild()
}

// TestCanonicalCacheKey: an isomorphic but differently-ordered query hits
// the same result-memo entries via the canonical key.
func TestCanonicalCacheKey(t *testing.T) {
	ts := newTestServer(t, Config{})
	q := sampleQuery(t, 11)
	iso := shuffledCopy(q, 99)

	var first, second SearchResponse
	postJSON(t, ts.URL+"/search", SearchRequest{Query: EncodeGraph(q), Sigma: 2}, &first)
	postJSON(t, ts.URL+"/search", SearchRequest{Query: EncodeGraph(iso), Sigma: 2}, &second)
	if first.Stats.MemoHit || !second.Stats.MemoHit {
		t.Fatalf("memo hits %v then %v; want the isomorphic reordered query to hit what the first stored",
			first.Stats.MemoHit, second.Stats.MemoHit)
	}
	if !reflect.DeepEqual(first.Answers, second.Answers) {
		t.Error("memoised answers differ for isomorphic queries")
	}

	// Different sigma must not collide.
	var third SearchResponse
	postJSON(t, ts.URL+"/search", SearchRequest{Query: EncodeGraph(q), Sigma: 3}, &third)
	if third.Stats.MemoHit {
		t.Error("different sigma must be a distinct memo entry")
	}
}

// TestSingleVertexQueriesDistinct: the DFS code of an edge-free graph is
// empty, so the canonical key must still separate queries by vertex label
// — a collision would serve one label's cached answers for another.
func TestSingleVertexQueriesDistinct(t *testing.T) {
	ts := newTestServer(t, Config{})
	one := func(label uint16) GraphJSON {
		return GraphJSON{Vertices: []VertexJSON{{Label: label}}}
	}
	var a, b SearchResponse
	postJSON(t, ts.URL+"/search", SearchRequest{Query: one(0), Sigma: 0}, &a)
	postJSON(t, ts.URL+"/search", SearchRequest{Query: one(999), Sigma: 0}, &b)
	// Under the default vertex-blind EdgeMutation metric their answers
	// coincide; the keys still must not, or a vertex-aware metric would
	// serve wrong results.
	if b.Stats.MemoHit {
		t.Fatal("distinct single-vertex queries must not share a memo entry")
	}
	if len(a.Answers) == 0 {
		t.Error("single-vertex query should match graphs")
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	q := EncodeGraph(sampleQuery(t, 13))

	cases := []struct {
		name string
		url  string
		body any
	}{
		{"negative sigma", "/search", SearchRequest{Query: q, Sigma: -1}},
		{"empty graph", "/search", SearchRequest{Query: GraphJSON{}, Sigma: 1}},
		{"disconnected graph", "/search", SearchRequest{Query: GraphJSON{
			Vertices: []VertexJSON{{Label: 1}, {Label: 1}, {Label: 1}, {Label: 1}},
			Edges:    []EdgeJSON{{U: 0, V: 1, Label: 1}, {U: 2, V: 3, Label: 1}},
		}, Sigma: 1}},
		{"edge out of range", "/search", SearchRequest{Query: GraphJSON{
			Vertices: []VertexJSON{{Label: 1}},
			Edges:    []EdgeJSON{{U: 0, V: 7, Label: 1}},
		}, Sigma: 1}},
		{"zero k", "/knn", KNNRequest{Query: q, K: 0, MaxSigma: 4}},
		{"zero max_sigma", "/knn", KNNRequest{Query: q, K: 2}},
		{"empty batch", "/batch", BatchRequest{Sigma: 1}},
	}
	for _, c := range cases {
		code := postJSON(t, ts.URL+c.url, c.body, nil)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
		}
	}

	// Malformed JSON body.
	r, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", r.StatusCode)
	}

	// Errors are counted in /stats.
	var st ServerStats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Requests["search"].Errors == 0 {
		t.Error("search errors should be counted")
	}
}

func TestOversizeBodyIs413(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := bytes.Repeat([]byte(" "), maxRequestBody+1)
	r, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", r.StatusCode)
	}
}

func TestInFlightLimit(t *testing.T) {
	ts := newTestServer(t, Config{MaxInFlight: 2})
	q := sampleQuery(t, 17)
	// Hammer the endpoint concurrently; with the semaphore in place every
	// request still completes (waiting, not rejected).
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(SearchRequest{Query: EncodeGraph(q), Sigma: float64(i % 3)})
			r, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", r.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPlannerStats: /stats aggregates planner counters across executed
// queries, memo hits add no fragments, and each response carries its own
// plan summary.
func TestPlannerStats(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Queries 13 and 14 hold only classes every graph holds, which the
	// database does not index; 15 is the first whose search materializes
	// fragments.
	q := sampleQuery(t, 15)
	req := SearchRequest{Query: EncodeGraph(q), Sigma: 2}

	var resp SearchResponse
	postJSON(t, ts.URL+"/search", req, &resp)
	if resp.Stats.ExpandedFragments > resp.Stats.UsedFragments {
		t.Errorf("plan summary expanded %d > used %d fragments",
			resp.Stats.ExpandedFragments, resp.Stats.UsedFragments)
	}
	if resp.Stats.RangeCandidates > resp.Stats.StructCandidates ||
		resp.Stats.DistCandidates > resp.Stats.RangeCandidates {
		t.Errorf("plan summary funnel not monotone: %+v", resp.Stats)
	}
	fragments := int64(resp.Stats.QueryFragments)
	postJSON(t, ts.URL+"/search", req, &resp) // memo hit: plans nothing
	if !resp.Stats.MemoHit || resp.Stats.QueryFragments != 0 {
		t.Errorf("repeat: %+v; want a memo hit that planned nothing", resp.Stats)
	}

	var st ServerStats
	if code := getJSON(t, ts.URL+"/stats", &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if st.Planner.Plans != 2 {
		t.Errorf("planner plans = %d, want 2 (memo hits count, planning nothing)", st.Planner.Plans)
	}
	if st.Planner.QueryFragments != fragments || fragments <= 0 {
		t.Errorf("planner fragment counters %+v, want the first search's %d fragments", st.Planner, fragments)
	}
	if st.Planner.ExpandedFragments > st.Planner.UsedFragments {
		t.Errorf("planner expanded %d > used %d", st.Planner.ExpandedFragments, st.Planner.UsedFragments)
	}
}
