package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"

	"pis"
	"pis/gen"
)

// newMutableServer builds a server over its OWN database (the shared
// read-only testEnv backend must never be mutated) and returns both.
func newMutableServer(t *testing.T, cfg Config) (*httptest.Server, *pis.Database, []*pis.Graph) {
	t.Helper()
	graphs := gen.Molecules(30, gen.Config{Seed: 77})
	db, err := pis.NewSharded(graphs, 2, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backend = db
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, db, graphs
}

func doJSON(t *testing.T, method, url string, req, resp any) int {
	t.Helper()
	var body *bytes.Reader
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	} else {
		body = bytes.NewReader(nil)
	}
	hr, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(hr)
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

// TestInsertEndpointRoundTrip: POST /graphs inserts a graph, returns its
// stable id, and the graph is immediately searchable and fetchable.
func TestInsertEndpointRoundTrip(t *testing.T) {
	ts, db, graphs := newMutableServer(t, Config{})
	g := gen.Molecules(1, gen.Config{Seed: 500})[0]

	var ins InsertResponse
	if code := doJSON(t, "POST", ts.URL+"/graphs", InsertRequest{Graph: EncodeGraph(g)}, &ins); code != 200 {
		t.Fatalf("insert status %d", code)
	}
	if ins.ID != int32(len(graphs)) {
		t.Errorf("insert id %d, want %d", ins.ID, len(graphs))
	}
	if ins.Graphs != len(graphs)+1 {
		t.Errorf("live count %d, want %d", ins.Graphs, len(graphs)+1)
	}
	if ins.Warning != "" {
		t.Errorf("unexpected warning: %q", ins.Warning)
	}

	// GET /graphs/{id} round-trips the inserted graph.
	var gj GraphJSON
	if code := getJSON(t, fmt.Sprintf("%s/graphs/%d", ts.URL, ins.ID), &gj); code != 200 {
		t.Fatalf("get inserted: status %d", code)
	}
	back, err := DecodeGraph(gj)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Error("inserted graph did not round-trip")
	}

	// The new graph is searchable: query with the graph itself at σ=0.
	var sr SearchResponse
	if code := postJSON(t, ts.URL+"/search", SearchRequest{Query: EncodeGraph(g), Sigma: 0}, &sr); code != 200 {
		t.Fatalf("search status %d", code)
	}
	found := false
	for _, id := range sr.Answers {
		if id == ins.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("inserted graph %d missing from answers %v", ins.ID, sr.Answers)
	}
	_ = db
}

// TestDeleteEndpoint: DELETE removes a graph from results; a missing or
// already-deleted id is 404.
func TestDeleteEndpoint(t *testing.T) {
	ts, db, graphs := newMutableServer(t, Config{})
	q := gen.Queries(graphs, 1, 6, 3)[0]
	before := db.Search(q, 0)
	if len(before.Answers) == 0 {
		t.Fatal("sampled query has no answers")
	}
	victim := before.Answers[0]

	var del DeleteResponse
	if code := doJSON(t, "DELETE", fmt.Sprintf("%s/graphs/%d", ts.URL, victim), nil, &del); code != 200 {
		t.Fatalf("delete status %d", code)
	}
	if del.ID != victim || del.Graphs != len(graphs)-1 {
		t.Errorf("delete response %+v", del)
	}

	var sr SearchResponse
	postJSON(t, ts.URL+"/search", SearchRequest{Query: EncodeGraph(q), Sigma: 0}, &sr)
	for _, id := range sr.Answers {
		if id == victim {
			t.Errorf("deleted graph %d still answered", victim)
		}
	}
	if code := getJSON(t, fmt.Sprintf("%s/graphs/%d", ts.URL, victim), nil); code != http.StatusNotFound {
		t.Errorf("GET deleted graph: status %d, want 404", code)
	}
	// Deleting again, or deleting a never-assigned id: 404.
	if code := doJSON(t, "DELETE", fmt.Sprintf("%s/graphs/%d", ts.URL, victim), nil, nil); code != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/graphs/99999", nil, nil); code != http.StatusNotFound {
		t.Errorf("delete missing: status %d, want 404", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/graphs/banana", nil, nil); code != http.StatusNotFound {
		t.Errorf("delete non-numeric: status %d, want 404", code)
	}
}

// TestMutationInvalidatesCache: a memoised answer must not outlive a
// mutation that changes it: the repeat after a delete is still a memo
// hit, and it drops the deleted graph.
func TestMutationInvalidatesCache(t *testing.T) {
	ts, _, graphs := newMutableServer(t, Config{})
	q := gen.Queries(graphs, 1, 6, 5)[0]
	req := SearchRequest{Query: EncodeGraph(q), Sigma: 0}

	var first, second SearchResponse
	postJSON(t, ts.URL+"/search", req, &first)
	postJSON(t, ts.URL+"/search", req, &second)
	if !second.Stats.MemoHit || !reflect.DeepEqual(second.Answers, first.Answers) {
		t.Fatalf("second identical search: memo hit %v, answers %v; want a hit answering %v",
			second.Stats.MemoHit, second.Answers, first.Answers)
	}

	// Delete one of the answers: the re-run reflects the deletion.
	if len(first.Answers) == 0 {
		t.Fatal("query has no answers")
	}
	victim := first.Answers[0]
	if code := doJSON(t, "DELETE", fmt.Sprintf("%s/graphs/%d", ts.URL, victim), nil, nil); code != 200 {
		t.Fatalf("delete status %d", code)
	}
	var st ServerStats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Mutations.Deletes != 1 {
		t.Errorf("mutation counter deletes = %d, want 1", st.Mutations.Deletes)
	}
	if st.Index.Tombstones != 1 {
		t.Errorf("index tombstones = %d, want 1", st.Index.Tombstones)
	}

	var third SearchResponse
	postJSON(t, ts.URL+"/search", req, &third)
	if !third.Stats.MemoHit {
		t.Error("a delete must not cost the memo entry")
	}
	if want := first.Answers[1:]; !slices.Equal(third.Answers, want) {
		t.Errorf("answers after deleting %d: %v, want %v", victim, third.Answers, want)
	}
}

// TestCompactEndpoint: POST /compact folds delta and tombstones away and
// answers are unchanged.
func TestCompactEndpoint(t *testing.T) {
	ts, db, graphs := newMutableServer(t, Config{})
	g := gen.Molecules(2, gen.Config{Seed: 501})
	for _, gg := range g {
		var ins InsertResponse
		if code := doJSON(t, "POST", ts.URL+"/graphs", InsertRequest{Graph: EncodeGraph(gg)}, &ins); code != 200 {
			t.Fatalf("insert status %d", code)
		}
	}
	doJSON(t, "DELETE", ts.URL+"/graphs/3", nil, nil)
	q := gen.Queries(graphs, 1, 6, 7)[0]
	before := db.Search(q, 1)
	var st0 ServerStats
	getJSON(t, ts.URL+"/stats", &st0)

	var cr CompactResponse
	if code := doJSON(t, "POST", ts.URL+"/compact", nil, &cr); code != 200 {
		t.Fatalf("compact status %d", code)
	}
	if cr.Index.Delta != 0 || cr.Index.Tombstones != 0 {
		t.Errorf("post-compact overlay delta=%d tombstones=%d, want 0/0", cr.Index.Delta, cr.Index.Tombstones)
	}
	if cr.Graphs != len(graphs)+2-1 {
		t.Errorf("post-compact live count %d, want %d", cr.Graphs, len(graphs)+1)
	}
	after := db.Search(q, 1)
	if !reflect.DeepEqual(before.Answers, after.Answers) {
		t.Errorf("compaction changed answers: %v != %v", after.Answers, before.Answers)
	}
	var st ServerStats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Mutations.Compactions != 1 {
		t.Errorf("compactions counter = %d, want 1", st.Mutations.Compactions)
	}
	// A merge: every surviving base graph carried over, the two inserts
	// enumerated (the counters are process-wide, hence deltas).
	c0, c := st0.Compaction, st.Compaction
	if c.CarriedGraphs-c0.CarriedGraphs != int64(len(graphs)-1) || c.EnumeratedGraphs-c0.EnumeratedGraphs != 2 {
		t.Errorf("compaction stats went %+v → %+v, want %d carried, 2 enumerated", c0, c, len(graphs)-1)
	}
}

// TestCompactKeepsResultCache: compaction changes no answer and no id, so
// the result memos survive POST /compact: a repeated /search is a memo
// hit and still what a fresh database over the same live graphs answers.
func TestCompactKeepsResultCache(t *testing.T) {
	ts, db, graphs := newMutableServer(t, Config{})
	extra := gen.Molecules(1, gen.Config{Seed: 502})[0]
	if code := doJSON(t, "POST", ts.URL+"/graphs", InsertRequest{Graph: EncodeGraph(extra)}, nil); code != 200 {
		t.Fatalf("insert status %d", code)
	}
	doJSON(t, "DELETE", ts.URL+"/graphs/3", nil, nil)
	req := SearchRequest{Query: EncodeGraph(gen.Queries(graphs, 1, 6, 7)[0]), Sigma: 2}
	var first, second SearchResponse
	postJSON(t, ts.URL+"/search", req, &first)
	if first.Stats.MemoHit || len(first.Answers) == 0 {
		t.Fatalf("first search: memo hit %v, answers %v; want a full search with answers", first.Stats.MemoHit, first.Answers)
	}
	if code := doJSON(t, "POST", ts.URL+"/compact", nil, nil); code != 200 {
		t.Fatalf("compact status %d", code)
	}
	postJSON(t, ts.URL+"/search", req, &second)
	if !second.Stats.MemoHit {
		t.Error("/compact cleared the result memos")
	}

	live := db.LiveIDs()
	survivors := make([]*pis.Graph, len(live))
	for i, id := range live {
		survivors[i] = db.Graph(id)
	}
	fresh, err := pis.New(survivors, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := DecodeGraph(req.Query)
	var want []int32
	for _, i := range fresh.Search(q, 2).Answers {
		want = append(want, live[i])
	}
	if !reflect.DeepEqual(second.Answers, want) {
		t.Errorf("memoised answers after /compact %v, a fresh database says %v", second.Answers, want)
	}
}

// TestInsertBadRequests: malformed insert bodies are rejected.
func TestInsertBadRequests(t *testing.T) {
	ts, _, _ := newMutableServer(t, Config{})
	cases := []struct {
		name string
		body InsertRequest
	}{
		{"empty graph", InsertRequest{}},
		{"edge out of range", InsertRequest{Graph: GraphJSON{
			Vertices: []VertexJSON{{Label: 1}},
			Edges:    []EdgeJSON{{U: 0, V: 9, Label: 1}},
		}}},
	}
	for _, c := range cases {
		if code := doJSON(t, "POST", ts.URL+"/graphs", c.body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
		}
	}
}

// TestIDOverflowIs404: ids beyond int32 must 404, not wrap around and
// address (or worse, delete) graph id mod 2^32.
func TestIDOverflowIs404(t *testing.T) {
	ts, db, _ := newMutableServer(t, Config{})
	for _, id := range []string{"4294967296", "9223372036854775807", "99999999999999999999"} {
		if code := getJSON(t, ts.URL+"/graphs/"+id, nil); code != http.StatusNotFound {
			t.Errorf("GET overflowing id %s: status %d, want 404", id, code)
		}
		if code := doJSON(t, "DELETE", ts.URL+"/graphs/"+id, nil, nil); code != http.StatusNotFound {
			t.Errorf("DELETE overflowing id %s: status %d, want 404", id, code)
		}
	}
	if db.Graph(0) == nil {
		t.Fatal("overflowing delete wrapped around and killed graph 0")
	}
}

// TestInFlightLimitWithMutations: the query semaphore still admits every
// search while mutations land concurrently; nothing deadlocks and every
// request completes.
func TestInFlightLimitWithMutations(t *testing.T) {
	ts, _, graphs := newMutableServer(t, Config{MaxInFlight: 2})
	q := gen.Queries(graphs, 1, 6, 11)[0]
	pool := gen.Molecules(4, gen.Config{Seed: 502})

	var wg sync.WaitGroup
	errs := make(chan error, 16)
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
				errs <- fmt.Errorf("search status %d", r.StatusCode)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(InsertRequest{Graph: EncodeGraph(pool[i])})
			r, err := http.Post(ts.URL+"/graphs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("insert status %d", r.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var st ServerStats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Mutations.Inserts != 4 {
		t.Errorf("inserts counter = %d, want 4", st.Mutations.Inserts)
	}
	if st.Graphs != len(graphs)+4 {
		t.Errorf("live graphs = %d, want %d", st.Graphs, len(graphs)+4)
	}
}
