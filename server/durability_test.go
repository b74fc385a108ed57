package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"pis"
	"pis/gen"
)

// newDurableServer builds a server over a durable sharded database.
func newDurableServer(t *testing.T) (*httptest.Server, *pis.Database, string) {
	t.Helper()
	graphs := gen.Molecules(24, gen.Config{Seed: 88})
	dir := filepath.Join(t.TempDir(), "db")
	db, err := pis.CreateSharded(dir, graphs, 2, pis.Options{MaxFragmentEdges: 4, CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s, err := New(Config{Backend: db})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, db, dir
}

// TestCheckpointEndpoint: POST /checkpoint flushes the WAL into fresh
// snapshots, /stats exposes the durability counters, and a server over
// an in-memory backend answers 409.
func TestCheckpointEndpoint(t *testing.T) {
	ts, _, _ := newDurableServer(t)

	var st ServerStats
	if code := doJSON(t, "GET", ts.URL+"/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Durability == nil {
		t.Fatal("durable backend reported no durability stats")
	}
	if st.Durability.WALRecords != 0 {
		t.Fatalf("fresh store has %d WAL records", st.Durability.WALRecords)
	}

	// Mutate: the WAL grows; checkpoint: it resets.
	g := gen.Molecules(1, gen.Config{Seed: 89})[0]
	var ins InsertResponse
	if code := doJSON(t, "POST", ts.URL+"/graphs", InsertRequest{Graph: EncodeGraph(g)}, &ins); code != http.StatusOK {
		t.Fatalf("insert: %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/stats", nil, &st); code != http.StatusOK || st.Durability.WALRecords != 1 {
		t.Fatalf("after insert: code %d, wal_records %d, want 1", code, st.Durability.WALRecords)
	}
	var cp CheckpointResponse
	if code := doJSON(t, "POST", ts.URL+"/checkpoint", nil, &cp); code != http.StatusOK {
		t.Fatalf("checkpoint: %d", code)
	}
	if cp.Durability == nil || cp.Durability.WALRecords != 0 || cp.Durability.LastCheckpointUnix == 0 {
		t.Fatalf("checkpoint response: %+v", cp.Durability)
	}
	if code := doJSON(t, "GET", ts.URL+"/stats", nil, &st); code != http.StatusOK ||
		st.Durability.WALRecords != 0 || st.Mutations.Checkpoints != 1 {
		t.Fatalf("after checkpoint: wal_records %d, checkpoints %d", st.Durability.WALRecords, st.Mutations.Checkpoints)
	}

	// In-memory backend: 409 with a clear error, and no durability block.
	mem, _, _ := newMutableServer(t, Config{})
	if code := doJSON(t, "POST", mem.URL+"/checkpoint", nil, nil); code != http.StatusConflict {
		t.Fatalf("in-memory checkpoint: %d, want 409", code)
	}
	if code := doJSON(t, "GET", mem.URL+"/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
}

// TestDurableServerRestart: a second server opened from the same data
// directory answers exactly like the first, mutations included, with no
// re-mining (the recovered index is loaded, not rebuilt).
func TestDurableServerRestart(t *testing.T) {
	ts, db, dir := newDurableServer(t)
	g := gen.Molecules(2, gen.Config{Seed: 90})
	var ins InsertResponse
	if code := doJSON(t, "POST", ts.URL+"/graphs", InsertRequest{Graph: EncodeGraph(g[0])}, &ins); code != http.StatusOK {
		t.Fatalf("insert: %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/graphs/3", nil, nil); code != http.StatusOK {
		t.Fatal("delete failed")
	}
	q := EncodeGraph(gen.Queries(g, 1, 4, 91)[0])
	var before SearchResponse
	if code := doJSON(t, "POST", ts.URL+"/search", SearchRequest{Query: q, Sigma: 2}, &before); code != http.StatusOK {
		t.Fatal("search failed")
	}
	db.Close() // release WAL handles; the on-disk state is the crash image

	re, err := pis.Open(dir, pis.Options{MaxFragmentEdges: 4, CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if d := re.Stats().Durability; d.ReplayedRecords != 2 {
		t.Fatalf("recovery replayed %d records, want 2 (insert + delete)", d.ReplayedRecords)
	}
	s2, err := New(Config{Backend: re})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	var after SearchResponse
	if code := doJSON(t, "POST", ts2.URL+"/search", SearchRequest{Query: q, Sigma: 2}, &after); code != http.StatusOK {
		t.Fatal("search after restart failed")
	}
	if len(after.Answers) != len(before.Answers) {
		t.Fatalf("restart changed the answer count: %d vs %d", len(after.Answers), len(before.Answers))
	}
	for i := range after.Answers {
		if after.Answers[i] != before.Answers[i] || after.Distances[i] != before.Distances[i] {
			t.Fatalf("restart changed answer %d: (%d,%g) vs (%d,%g)", i,
				after.Answers[i], after.Distances[i], before.Answers[i], before.Distances[i])
		}
	}
}
