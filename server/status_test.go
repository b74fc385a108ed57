package server

import (
	"net/http"
	"sync/atomic"
	"testing"

	"pis"
	"pis/gen"
	"pis/internal/obs"
)

// walkCounter is a Database that counts the walks over its graphs.
type walkCounter struct {
	*pis.Database
	walks atomic.Int64
}

func (w *walkCounter) GraphBytes() int {
	w.walks.Add(1)
	return w.Database.GraphBytes()
}

// statusRPCs sums the successful RPCs to the nodes, read from the
// registry rather than through a scrape, which would read the backend.
func statusRPCs(nodes []*pis.ClusterNode) uint64 {
	h := obs.Default().HistogramVec("pis_cluster_rpc_seconds", "", "peer", nil)
	var n uint64
	for _, cn := range nodes {
		n += h.With(cn.Addr()).Snapshot().Count()
	}
	return n
}

// TestOneStatusReadPerRequest: /stats, /healthz and a /metrics scrape
// each read the backend's status once. Through a 3-node cluster that is
// one status round, an RPC to each peer; on a Database, /healthz and
// /metrics never walk the graphs and /stats walks them once.
func TestOneStatusReadPerRequest(t *testing.T) {
	const requests = 10
	paths := []struct {
		path  string
		walks int64
	}{{"/stats", 1}, {"/healthz", 0}, {"/metrics", 0}}
	get := func(url string) {
		t.Helper()
		if code, _, _ := getBody(t, url); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, code)
		}
	}

	graphs := gen.Molecules(30, gen.Config{Seed: 71})
	nodes := testCluster(t, graphs, 3)
	// The newest server owns the /metrics gauges, so each arm builds its
	// server right before it is measured.
	cluster := newTestServer(t, Config{Backend: nodes[0]})
	for _, p := range paths {
		before := statusRPCs(nodes)
		for range requests {
			get(cluster.URL + p.path)
		}
		if got, want := statusRPCs(nodes)-before, uint64(requests*len(nodes)); got != want {
			t.Errorf("%d requests to %s cost %d status RPCs on %d peers; want %d, one round each", requests, p.path, got, len(nodes), want)
		}
	}

	db, err := pis.NewSharded(graphs, 3, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	wc := &walkCounter{Database: db}
	local := newTestServer(t, Config{Backend: wc})
	for _, p := range paths {
		before := wc.walks.Load()
		for range requests {
			get(local.URL + p.path)
		}
		if got := wc.walks.Load() - before; got != requests*p.walks {
			t.Errorf("%d requests to %s walked the graphs %d times; want %d", requests, p.path, got, requests*p.walks)
		}
	}
}
