package server

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"pis"
	"pis/gen"
	"pis/internal/obs"
)

func getBody(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	return r.StatusCode, string(b), r.Header
}

// metricValue extracts one un-labeled or exactly-labeled sample value
// from an exposition body (-1 when absent).
func metricValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || name != sample {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %s has unparseable value %q", sample, val)
		}
		return f
	}
	return -1
}

// TestMetricsEndpoint checks that /metrics serves valid exposition
// format and that the search counters advance monotonically across
// requests.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	q := sampleQuery(t, 31)

	code, before, hdr := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q, want Prometheus text exposition", ct)
	}

	// Exposition-format validity: every line is a HELP/TYPE comment or a
	// "name{labels} value" sample.
	sampleRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (?:[0-9eE.+-]+|\+Inf|-Inf|NaN)$`)
	for _, line := range strings.Split(strings.TrimRight(before, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sampleRe.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// Required metric families from every instrumented layer.
	for _, want := range []string{
		"# TYPE pis_queries_total counter",
		"# TYPE pis_query_stage_seconds histogram",
		"# TYPE pis_query_candidates_total counter",
		"# TYPE pis_http_requests_total counter",
		"# TYPE pis_wal_appends_total counter",
		"# TYPE pis_snapshots_total counter",
		"# TYPE pis_compactions_total counter",
		"# TYPE pis_compaction_carried_graphs_total counter",
		"# TYPE pis_compaction_enumerated_graphs_total counter",
		"# TYPE pis_result_memo_lookups_total counter",
		"# TYPE pis_result_memo_refreshed_graphs_total counter",
		"# TYPE pis_result_memo_bytes gauge",
		`pis_result_memo_evictions_total{list="probation"}`,
		`pis_result_memo_evictions_total{list="protected"}`,
		"# TYPE pis_index_range_queries_total counter",
		"# TYPE pis_graphs_live gauge",
		"# TYPE pis_goroutines gauge",
	} {
		if !strings.Contains(before, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if v := metricValue(t, before, "pis_graphs_live"); v <= 0 {
		t.Errorf("pis_graphs_live = %v, want > 0", v)
	}

	queriesBefore := metricValue(t, before, `pis_queries_total{method="pis"}`)
	verifyBefore := metricValue(t, before, `pis_query_stage_seconds_count{stage="verify"}`)

	const burst = 4
	for i := 0; i < burst; i++ {
		var resp SearchResponse
		if code := postJSON(t, ts.URL+"/search", SearchRequest{Query: EncodeGraph(q), Sigma: float64(i)}, &resp); code != 200 {
			t.Fatalf("search %d: status %d", i, code)
		}
	}

	_, after, _ := getBody(t, ts.URL+"/metrics")
	queriesAfter := metricValue(t, after, `pis_queries_total{method="pis"}`)
	verifyAfter := metricValue(t, after, `pis_query_stage_seconds_count{stage="verify"}`)
	// The backend is sharded (3 shards), so each /search runs >= burst
	// pipeline queries. Other tests share the process-wide registry, so
	// assert monotone growth by at least the burst, not exact deltas.
	if queriesAfter < queriesBefore+burst {
		t.Errorf("pis_queries_total{pis} went %v -> %v, want advance >= %d", queriesBefore, queriesAfter, burst)
	}
	if verifyAfter < verifyBefore+burst {
		t.Errorf("verify stage count went %v -> %v, want advance >= %d", verifyBefore, verifyAfter, burst)
	}
}

// TestSearchTraceFlag checks that ?trace=1 returns a span tree, and that
// a repeat answered from the result memos returns its own tree saying so.
func TestSearchTraceFlag(t *testing.T) {
	ts := newTestServer(t, Config{})
	q := sampleQuery(t, 32)
	req := SearchRequest{Query: EncodeGraph(q), Sigma: 2}

	var plain SearchResponse
	postJSON(t, ts.URL+"/search?trace=1", req, &plain)
	if plain.Trace == nil {
		t.Fatal("?trace=1 returned no trace")
	}
	if plain.Trace.Name != "search" || plain.Trace.DurationMS <= 0 {
		t.Fatalf("bad root span: %+v", plain.Trace)
	}
	// The sharded backend returns per-shard children plus a merge span.
	if len(plain.Trace.Children) < 2 {
		t.Fatalf("want per-shard child spans, got %d children", len(plain.Trace.Children))
	}
	seenStage := false
	for _, c := range plain.Trace.Children {
		for _, g := range c.Children {
			if g.Name == "verify" || g.Name == "filter" || g.Name == "plan" {
				seenStage = true
			}
		}
	}
	if !seenStage {
		t.Error("no stage spans under the shard spans")
	}

	// Same query again: a memo hit traces its own execution, one span per
	// shard plus the merge, and marks the root.
	var hit SearchResponse
	postJSON(t, ts.URL+"/search?trace=1", req, &hit)
	if !hit.Stats.MemoHit {
		t.Fatal("second identical search was not a memo hit")
	}
	if hit.Trace == nil || hit.Trace.Attrs["memo_hit"] != true {
		t.Fatalf("traced memo hit: %+v", hit.Trace)
	}
	if len(hit.Trace.Children) != len(plain.Trace.Children) {
		t.Fatalf("memo-hit trace has %d children, the first search %d", len(hit.Trace.Children), len(plain.Trace.Children))
	}

	// Untraced requests carry no trace at all.
	var untraced SearchResponse
	postJSON(t, ts.URL+"/search", SearchRequest{Query: EncodeGraph(q), Sigma: 3}, &untraced)
	if untraced.Trace != nil {
		t.Error("untraced search returned a trace")
	}

	// The tree's shape by backend: over one shard the stages hang off the
	// root; a cluster node returns one leaf per remote shard and a merge.
	graphs, _ := testEnv(t)
	one, err := pis.New(graphs, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		backend Backend
		want    []string
	}{
		{"one shard", one, []string{"plan", "filter", "verify"}},
		{"cluster", testCluster(t, graphs, 3)[0], []string{"shard-0", "shard-1", "shard-2", "merge"}},
	} {
		var resp SearchResponse
		postJSON(t, newTestServer(t, Config{Backend: tc.backend}).URL+"/search?trace=1", req, &resp)
		if resp.Trace == nil || resp.Trace.Name != "search" || resp.Trace.DurationMS <= 0 {
			t.Fatalf("%s: bad root span: %+v", tc.name, resp.Trace)
		}
		var names []string
		for _, c := range resp.Trace.Children {
			names = append(names, c.Name)
		}
		if !slices.Equal(names, tc.want) {
			t.Errorf("%s: child spans %v, want %v", tc.name, names, tc.want)
		}
		if !slices.Equal(resp.Answers, plain.Answers) {
			t.Errorf("%s: traced answers %v, the sharded backend's %v", tc.name, resp.Answers, plain.Answers)
		}
	}
}

// testCluster starts an in-memory cluster of n nodes — n shards, two
// replicas each — over graphs.
func testCluster(t *testing.T, graphs []*pis.Graph, n int) []*pis.ClusterNode {
	t.Helper()
	// Reserve n distinct loopback ports, then release them for the nodes.
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	nodes := make([]*pis.ClusterNode, n)
	for i, addr := range addrs {
		cn, err := pis.StartClusterNode(pis.ClusterOptions{
			Self: addr, Peers: addrs, Shards: n, Replication: 2, Graphs: graphs,
			Options:      pis.Options{MaxFragmentEdges: 4},
			PingInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = cn
		t.Cleanup(func() { cn.Close() })
	}
	for _, cn := range nodes {
		cn.CheckPeers()
	}
	return nodes
}

// TestClusterReadSeesPeerWrite: on a two-node cluster, a repeated search
// through node A sees a graph inserted through node B. Only one node
// writes, so this is an ordinary read-replica deployment, and A must not
// answer from anything B's write could not reach.
func TestClusterReadSeesPeerWrite(t *testing.T) {
	graphs := gen.Molecules(30, gen.Config{Seed: 61})
	nodes := testCluster(t, graphs, 2)
	a := newTestServer(t, Config{Backend: nodes[0]})
	b := newTestServer(t, Config{Backend: nodes[1]})
	q := gen.Queries(graphs, 1, 6, 62)[0]
	req := SearchRequest{Query: EncodeGraph(q), Sigma: 1}

	var before, after SearchResponse
	if code := postJSON(t, a.URL+"/search", req, &before); code != http.StatusOK {
		t.Fatalf("search on A: status %d", code)
	}
	var ins InsertResponse
	if code := doJSON(t, "POST", b.URL+"/graphs", InsertRequest{Graph: req.Query}, &ins); code != http.StatusOK {
		t.Fatalf("insert on B: status %d", code)
	}
	if code := postJSON(t, a.URL+"/search", req, &after); code != http.StatusOK {
		t.Fatalf("search on A after the insert: status %d", code)
	}
	if !slices.Contains(after.Answers, ins.ID) {
		t.Errorf("A answered %v after B inserted graph %d (before: %v)", after.Answers, ins.ID, before.Answers)
	}
	ref, err := pis.New(append(slices.Clone(graphs), q), pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Search(q, 1).Answers; !slices.Equal(after.Answers, want) {
		t.Errorf("A answered %v, a database over the graphs plus the insert %v", after.Answers, want)
	}
}

// TestDebugQueriesEndpoint checks the query ring: newest first, limit
// honored, traces retained for traced queries.
func TestDebugQueriesEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{QueryLogSize: 8})

	var dq DebugQueriesResponse
	if code := getJSON(t, ts.URL+"/debug/queries", &dq); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(dq.Queries) != 0 {
		t.Fatalf("fresh server has %d recorded queries", len(dq.Queries))
	}

	for i := 0; i < 3; i++ {
		q := sampleQuery(t, int64(40+i))
		url := ts.URL + "/search"
		if i == 2 {
			url += "?trace=1"
		}
		var resp SearchResponse
		postJSON(t, url, SearchRequest{Query: EncodeGraph(q), Sigma: 1.5}, &resp)
	}

	if code := getJSON(t, ts.URL+"/debug/queries", &dq); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(dq.Queries) != 3 {
		t.Fatalf("recorded %d queries, want 3", len(dq.Queries))
	}
	// Newest first: the traced query was last.
	if dq.Queries[0].Trace == nil {
		t.Error("newest record lost its trace")
	}
	if dq.Queries[1].Trace != nil || dq.Queries[2].Trace != nil {
		t.Error("untraced records carry traces")
	}
	for _, rec := range dq.Queries {
		if rec.Endpoint != "search" {
			t.Errorf("endpoint %q, want search", rec.Endpoint)
		}
		if rec.QueryN == 0 || rec.ElapsedMS < 0 {
			t.Errorf("record not populated: %+v", rec)
		}
	}

	if code := getJSON(t, ts.URL+"/debug/queries?limit=2", &dq); code != 200 || len(dq.Queries) != 2 {
		t.Fatalf("limit=2: status %d, %d queries", code, len(dq.Queries))
	}
	if code := getJSON(t, ts.URL+"/debug/queries?limit=0", nil); code != http.StatusBadRequest {
		t.Fatalf("limit=0: status %d, want 400", code)
	}
}

// TestSlowQueryLog checks that queries over the threshold are logged
// through the configured slog handler and flagged in the ring.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	// 1ns threshold: everything is slow.
	ts := newTestServer(t, Config{SlowQueryThreshold: time.Nanosecond, Logger: logger})
	q := sampleQuery(t, 50)
	var resp SearchResponse
	postJSON(t, ts.URL+"/search", SearchRequest{Query: EncodeGraph(q), Sigma: 2}, &resp)

	out := buf.String()
	if !strings.Contains(out, "slow query") || !strings.Contains(out, `"endpoint":"search"`) {
		t.Fatalf("slow-query log missing or unstructured: %q", out)
	}
	var dq DebugQueriesResponse
	getJSON(t, ts.URL+"/debug/queries", &dq)
	if len(dq.Queries) == 0 || !dq.Queries[0].Slow {
		t.Fatal("slow query not flagged in /debug/queries")
	}

	var st ServerStats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Observability.SlowQueries < 1 {
		t.Errorf("observability.slow_queries = %d, want >= 1", st.Observability.SlowQueries)
	}
}

// TestStatsRuntimeBlock checks the process-telemetry and observability
// blocks of /stats.
func TestStatsRuntimeBlock(t *testing.T) {
	ts := newTestServer(t, Config{})
	q := sampleQuery(t, 60)
	var resp SearchResponse
	postJSON(t, ts.URL+"/search", SearchRequest{Query: EncodeGraph(q), Sigma: 2}, &resp)

	var st ServerStats
	if code := getJSON(t, ts.URL+"/stats", &st); code != 200 {
		t.Fatalf("status %d", code)
	}
	if st.Runtime.Goroutines < 1 {
		t.Errorf("runtime.goroutines = %d", st.Runtime.Goroutines)
	}
	if st.Runtime.HeapBytes == 0 {
		t.Error("runtime.heap_bytes = 0")
	}
	if st.UptimeMS <= 0 {
		t.Error("uptime_ms not positive")
	}
	sl := st.Observability.StageLatency
	for _, stage := range []string{"plan", "filter", "verify"} {
		if sl[stage].Count == 0 {
			t.Errorf("observability.stage_latency[%s].count = 0 after a search", stage)
		}
	}
	if verify := sl["verify"]; verify.P99MS < verify.P50MS {
		t.Errorf("verify p99 %v < p50 %v", verify.P99MS, verify.P50MS)
	}
}

// TestMemoVisible: a repeated query after a write is answered from the
// segments' result memos, and the response, its trace, /stats and
// /metrics all say so.
func TestMemoVisible(t *testing.T) {
	ts, _, graphs := newMutableServer(t, Config{})
	req := SearchRequest{Query: EncodeGraph(graphs[4]), Sigma: 1}
	var cold, warm SearchResponse
	postJSON(t, ts.URL+"/search", req, &cold)
	if cold.Stats.MemoHit || cold.Cached {
		t.Fatalf("first search: %+v cached=%v", cold.Stats, cold.Cached)
	}
	var st0 ServerStats
	getJSON(t, ts.URL+"/stats", &st0)
	if code := doJSON(t, "POST", ts.URL+"/graphs", InsertRequest{Graph: req.Query}, nil); code != 200 {
		t.Fatalf("insert status %d", code)
	}
	postJSON(t, ts.URL+"/search?trace=1", req, &warm)
	if warm.Cached || !warm.Stats.MemoHit || warm.Stats.Refreshed != 1 || warm.Stats.VerifyCacheHits != len(cold.Answers) {
		t.Fatalf("search after an insert: cached=%v stats %+v; want a memo hit that verified the one new graph", warm.Cached, warm.Stats)
	}
	if len(warm.Answers) != len(cold.Answers)+1 {
		t.Fatalf("answers %v, want %v plus the inserted copy of the query", warm.Answers, cold.Answers)
	}
	if warm.Trace == nil || warm.Trace.Attrs["memo_hit"] != true || warm.Trace.Attrs["refreshed"] != float64(1) {
		t.Fatalf("search span attributes: %+v", warm.Trace)
	}
	var st1 ServerStats
	getJSON(t, ts.URL+"/stats", &st1)
	// Two shards: two lookups per search.
	if d := st1.Memo.Hits - st0.Memo.Hits; d != 2 {
		t.Errorf("/stats memo.hits advanced by %d, want 2", d)
	}
	if d := st1.Memo.RefreshedGraphs - st0.Memo.RefreshedGraphs; d != 1 {
		t.Errorf("/stats memo.refreshed_graphs advanced by %d, want 1", d)
	}
	if st1.Memo.Bytes <= 0 || st1.Memo.Misses < 2 {
		t.Errorf("/stats memo block: %+v", st1.Memo)
	}
	_, body, _ := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, body, `pis_result_memo_lookups_total{outcome="hit"}`); int64(got) != st1.Memo.Hits {
		t.Errorf("/metrics counts %v memo hits, /stats %d", got, st1.Memo.Hits)
	}
}

// TestTracedBackendInterface pins that both public backends are Backends
// and that tracing needs no more of one than SearchContext: a context
// carrying a trace comes back with the tree.
func TestTracedBackendInterface(t *testing.T) {
	var _ Backend = (*pis.Database)(nil)
	var _ Backend = (*pis.ClusterNode)(nil)
	_, db := testEnv(t)
	var be Backend = db
	ctx, tr := obs.WithTrace(context.Background())
	if _, err := be.SearchContext(ctx, sampleQuery(t, 33), 1); err != nil {
		t.Fatal(err)
	}
	if sp := tr.Root(); sp == nil || sp.Name != "search" || len(sp.Children) != db.NumShards()+1 {
		t.Fatalf("traced SearchContext over %d shards left the tree %+v", db.NumShards(), sp)
	}
}

// TestPlannerChoicesVisible: ?trace=1 shows, per range query the planner
// ran, the gain it expected and the gain it saw, and /stats lists what the
// planner has learned about each class's range query.
func TestPlannerChoicesVisible(t *testing.T) {
	graphs := gen.Molecules(120, gen.Config{Seed: 29})
	// The first search plans with the cold-start thresholds, which expand
	// at least one class on this corpus whatever the timings learned after.
	db, err := pis.New(graphs, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Backend: db})
	var _ localBackend = db
	var _ localBackend = (*pis.Database)(nil)

	traced := 0
	for _, q := range gen.Queries(graphs, 6, 10, 30) {
		var resp SearchResponse
		postJSON(t, ts.URL+"/search?trace=1", SearchRequest{Query: EncodeGraph(q), Sigma: 2}, &resp)
		if resp.Trace == nil || len(resp.Trace.Children) == 0 || resp.Trace.Children[0].Name != "plan" {
			t.Fatalf("no plan span: %+v", resp.Trace)
		}
		if resp.Stats.ExpandedFragments == 0 {
			continue
		}
		traced++
		attrs := resp.Trace.Children[0].Attrs
		for _, name := range []string{"expanded_class", "estimated_gain", "observed_gain"} {
			if vs, _ := attrs[name].([]any); len(vs) != resp.Stats.ExpandedFragments {
				t.Errorf("plan span attr %s = %v, want one entry per expanded fragment (%d)", name, attrs[name], resp.Stats.ExpandedFragments)
			}
		}
	}
	if traced == 0 {
		t.Fatal("no query expanded a fragment: the trace attributes went unchecked")
	}

	var st ServerStats
	if code := getJSON(t, ts.URL+"/stats", &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if len(st.Planner.LearnedSurvival) == 0 {
		t.Fatal("/stats planner.learned_survival is empty after range queries ran")
	}
	for _, c := range st.Planner.LearnedSurvival {
		if c.Shard != 0 || c.SigmaBucket != 2 || c.Survival <= 0 || c.Survival > 1 {
			t.Errorf("implausible learned cell %+v (one shard, every search at σ=2)", c)
		}
	}
}
