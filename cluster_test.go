// End-to-end cluster tests: the cluster correctness oracle is the
// single-process database. Verification is exact and replicas are
// identical, so for any fixed database and query the cluster's answer
// must be byte-for-byte the unsharded answer — regardless of placement,
// replication, which replica served each shard, or whether a node was
// killed while the query was in flight.

package pis_test

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"pis"
	"pis/gen"
	"pis/internal/cluster"
	"pis/internal/obs"
	"pis/internal/store"
)

// clusterAddrs reserves n distinct loopback addresses. The listeners
// are closed so StartClusterNode can bind them; Linux does not
// immediately reuse ephemeral ports, so collisions are not a concern at
// test scale.
func clusterAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

var clusterTestOpts = pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}

// startTestCluster boots one ClusterNode per address over the shared
// bootstrap graphs. dataDirs may be nil (in-memory) or one directory
// per node.
func startTestCluster(t *testing.T, addrs []string, shards, replication int, dataDirs []string, graphs []*pis.Graph) []*pis.ClusterNode {
	t.Helper()
	nodes := make([]*pis.ClusterNode, len(addrs))
	for i, addr := range addrs {
		dir := ""
		if dataDirs != nil {
			dir = dataDirs[i]
		}
		cn, err := pis.StartClusterNode(pis.ClusterOptions{
			Self:         addr,
			Peers:        addrs,
			Shards:       shards,
			Replication:  replication,
			DataDir:      dir,
			Graphs:       graphs,
			Options:      clusterTestOpts,
			PingInterval: -1, // tests drive CheckPeers explicitly
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = cn
		t.Cleanup(func() { cn.Close() })
	}
	// Every coordinator gets a fresh reachability view now that all
	// nodes are up.
	for _, cn := range nodes {
		cn.CheckPeers()
	}
	return nodes
}

// TestClusterMatchesSingleProcess is the cluster correctness property:
// search, kNN, and batch answers through any node's coordinator equal
// the single-process database's, for several shard/replication shapes.
func TestClusterMatchesSingleProcess(t *testing.T) {
	graphs := gen.Molecules(60, gen.Config{Seed: 21})
	ref, err := pis.New(graphs, clusterTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	queries := gen.Queries(graphs, 5, 8, 2)

	for _, shape := range []struct{ nodes, shards, repl int }{
		{1, 1, 1}, {2, 3, 2}, {3, 3, 2}, {3, 5, 3},
	} {
		nodes := startTestCluster(t, clusterAddrs(t, shape.nodes), shape.shards, shape.repl, nil, graphs)
		for ni, cn := range nodes {
			if got := cn.Len(); got != len(graphs) {
				t.Fatalf("%+v node %d: Len = %d, want %d", shape, ni, got, len(graphs))
			}
		}
		cn := nodes[0]
		for qi, q := range queries {
			for _, sigma := range []float64{0, 1, 2.5} {
				want := ref.Search(q, sigma)
				got, err := cn.SearchContext(context.Background(), q, sigma)
				if err != nil {
					t.Fatalf("%+v query %d σ=%g: %v", shape, qi, sigma, err)
				}
				if !reflect.DeepEqual(got.Answers, want.Answers) || !reflect.DeepEqual(got.Distances, want.Distances) {
					t.Errorf("%+v query %d σ=%g: answers %v/%v, want %v/%v",
						shape, qi, sigma, got.Answers, got.Distances, want.Answers, want.Distances)
				}
			}
			wantNS := ref.SearchKNN(q, 4, 10)
			gotNS, err := cn.SearchKNNContext(context.Background(), q, 4, 10)
			if err != nil {
				t.Fatalf("%+v query %d knn: %v", shape, qi, err)
			}
			if !reflect.DeepEqual(gotNS, wantNS) {
				t.Errorf("%+v query %d knn: got %v, want %v", shape, qi, gotNS, wantNS)
			}
		}
		wantBatch := ref.SearchBatch(queries, 1.5, 2)
		gotBatch, err := cn.SearchBatchContext(context.Background(), queries, 1.5, 2)
		if err != nil {
			t.Fatalf("%+v batch: %v", shape, err)
		}
		for i := range wantBatch {
			if !reflect.DeepEqual(gotBatch[i].Answers, wantBatch[i].Answers) {
				t.Errorf("%+v batch query %d: answers differ", shape, i)
			}
		}
	}
}

// TestClusterMutationsMatchSingleProcess runs the same insert/delete
// stream against the cluster and the reference and compares answers.
func TestClusterMutationsMatchSingleProcess(t *testing.T) {
	graphs := gen.Molecules(40, gen.Config{Seed: 33})
	extra := gen.Molecules(50, gen.Config{Seed: 34})[40:]
	ref, err := pis.New(graphs, clusterTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	nodes := startTestCluster(t, clusterAddrs(t, 3), 3, 2, nil, graphs)
	cn := nodes[0]

	for _, g := range extra {
		wantID, err := ref.Insert(g)
		if err != nil {
			t.Fatal(err)
		}
		gotID, err := cn.Insert(g)
		if err != nil {
			t.Fatal(err)
		}
		if gotID != wantID {
			t.Fatalf("insert id %d, want %d", gotID, wantID)
		}
	}
	for _, id := range []int32{3, 17, 41} {
		wantFound, err := ref.Delete(id)
		if err != nil {
			t.Fatal(err)
		}
		gotFound, err := cn.Delete(id)
		if err != nil {
			t.Fatal(err)
		}
		if gotFound != wantFound {
			t.Fatalf("delete %d: found %v, want %v", id, gotFound, wantFound)
		}
	}
	if cn.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", cn.Len(), ref.Len())
	}
	queries := gen.Queries(graphs, 4, 8, 5)
	for qi, q := range queries {
		want := ref.Search(q, 2)
		got, err := cn.SearchContext(context.Background(), q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Answers, want.Answers) {
			t.Errorf("query %d after mutations: answers %v, want %v", qi, got.Answers, want.Answers)
		}
	}
	// Lookups route to whichever replica holds the graph.
	if cn.Graph(41) != nil {
		t.Error("deleted graph 41 still served")
	}
	if cn.Graph(44) == nil {
		t.Error("inserted graph 44 not served")
	}
}

// TestClusterNodeKillMidQuery is the tentpole differential: with
// replication 2, queries keep returning exactly the single-process
// answers while a node is killed at a random point mid-stream.
func TestClusterNodeKillMidQuery(t *testing.T) {
	graphs := gen.Molecules(60, gen.Config{Seed: 55})
	ref, err := pis.New(graphs, clusterTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	queries := gen.Queries(graphs, 6, 8, 3)
	want := make([]pis.Result, len(queries))
	for i, q := range queries {
		want[i] = ref.Search(q, 2)
	}

	nodes := startTestCluster(t, clusterAddrs(t, 3), 3, 2, nil, graphs)
	cn := nodes[0]

	// Query continuously through node 0 while node 2 dies.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond) // land mid-stream
		nodes[2].Close()
	}()
	for round := 0; round < 10; round++ {
		for qi, q := range queries {
			got, err := cn.SearchContext(context.Background(), q, 2)
			if err != nil {
				t.Fatalf("round %d query %d during node kill: %v", round, qi, err)
			}
			if !reflect.DeepEqual(got.Answers, want[qi].Answers) {
				t.Fatalf("round %d query %d: answers %v, want %v", round, qi, got.Answers, want[qi].Answers)
			}
		}
	}
	wg.Wait()
	// And after the dust settles, with the dead peer marked down.
	cn.CheckPeers()
	for qi, q := range queries {
		got, err := cn.SearchContext(context.Background(), q, 2)
		if err != nil {
			t.Fatalf("query %d after node kill: %v", qi, err)
		}
		if !reflect.DeepEqual(got.Answers, want[qi].Answers) {
			t.Errorf("query %d after node kill: answers differ", qi)
		}
	}
}

// TestClusterQuorumLoss: with replication 1, losing a node makes its
// shards unavailable — queries fail with ErrUnavailable, never with a
// silently partial answer. Rendezvous placement decides which node owns
// which shard, so the test computes the placement and kills the owner
// of shard 0, querying through the survivor.
func TestClusterQuorumLoss(t *testing.T) {
	graphs := gen.Molecules(40, gen.Config{Seed: 77})
	addrs := clusterAddrs(t, 2)
	victim := 0
	if cluster.Place(2, addrs, 1)[0][0] == addrs[1] {
		victim = 1
	}
	nodes := startTestCluster(t, addrs, 2, 1, nil, graphs)
	cn := nodes[1-victim]
	q := gen.Queries(graphs, 1, 8, 9)[0]

	if _, err := cn.SearchContext(context.Background(), q, 2); err != nil {
		t.Fatalf("healthy cluster: %v", err)
	}
	nodes[victim].Close()
	_, err := cn.SearchContext(context.Background(), q, 2)
	if !errors.Is(err, pis.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	ov := cn.Stats().Cluster
	if ov.CoveredShards >= ov.Shards {
		t.Errorf("overview reports full coverage (%d/%d) during quorum loss", ov.CoveredShards, ov.Shards)
	}
}

// TestClusterDurableRestartCatchUp kills a durable node, mutates the
// cluster without it, restarts it on the same address and data dir, and
// checks it catches up (WAL shipping) and is readmitted for writes.
func TestClusterDurableRestartCatchUp(t *testing.T) {
	graphs := gen.Molecules(30, gen.Config{Seed: 91})
	extra := gen.Molecules(36, gen.Config{Seed: 92})[30:]
	addrs := clusterAddrs(t, 2)
	dirs := []string{t.TempDir(), t.TempDir()}
	nodes := startTestCluster(t, addrs, 2, 2, dirs, graphs)

	ref, err := pis.New(graphs, clusterTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// Mutations while both nodes live.
	for _, g := range extra[:3] {
		if _, err := ref.Insert(g); err != nil {
			t.Fatal(err)
		}
		if _, err := nodes[0].Insert(g); err != nil {
			t.Fatal(err)
		}
	}
	// Kill node 1; mutate without it (it goes stale).
	if err := nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	for _, g := range extra[3:] {
		if _, err := ref.Insert(g); err != nil {
			t.Fatal(err)
		}
		if _, err := nodes[0].Insert(g); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.Delete(5); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].Delete(5); err != nil {
		t.Fatal(err)
	}

	// Restart node 1: recover from its store, catch up from node 0.
	cn1, err := pis.StartClusterNode(pis.ClusterOptions{
		Self: addrs[1], Peers: addrs, Shards: 2, Replication: 2,
		DataDir: dirs[1], Graphs: graphs, Options: clusterTestOpts, PingInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cn1.Close()
	nodes[0].CheckPeers() // readmission sweep on the survivor
	cn1.CheckPeers()

	// The restarted node answers with the full mutation history —
	// through its own coordinator, which may serve from its own replicas.
	queries := gen.Queries(graphs, 4, 8, 6)
	for qi, q := range queries {
		want := ref.Search(q, 2)
		got, err := cn1.SearchContext(context.Background(), q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Answers, want.Answers) {
			t.Errorf("query %d after catch-up: answers %v, want %v", qi, got.Answers, want.Answers)
		}
	}
	// Readmitted: a write through node 0 reaches node 1 (observable as
	// node 1 still matching the reference after another mutation).
	g := gen.Molecules(37, gen.Config{Seed: 93})[36]
	if _, err := ref.Insert(g); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].Insert(g); err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		want := ref.Search(q, 2)
		got, err := cn1.SearchContext(context.Background(), q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Answers, want.Answers) {
			t.Errorf("query %d after readmission write: answers %v, want %v", qi, got.Answers, want.Answers)
		}
	}
}

// TestClusterMemoAcrossKillAndCatchUp keeps one query pool warm on every
// replica of a 3-node cluster and compares it with the single-process
// oracle after every phase of a replica's death and return: the replicas'
// result memos are brought up to date by whichever writes reached them,
// and a replica recovered from its store (or reinstalled from a peer's
// snapshot) starts with a cold one — either way the answers are the
// oracle's, through every node's coordinator.
func TestClusterMemoAcrossKillAndCatchUp(t *testing.T) {
	graphs := gen.Molecules(45, gen.Config{Seed: 94})
	extra := gen.Molecules(55, gen.Config{Seed: 95})[45:]
	addrs := clusterAddrs(t, 3)
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	nodes := startTestCluster(t, addrs, 3, 2, dirs, graphs)
	ref, err := pis.New(graphs, clusterTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	queries := gen.Queries(graphs, 4, 7, 8)
	memoHits := func() int64 {
		return obs.Default().CounterVec("pis_result_memo_lookups_total", "", "outcome").Value("hit")
	}
	hits0 := memoHits()

	check := func(phase string, live ...*pis.ClusterNode) {
		t.Helper()
		for round := 0; round < 2; round++ { // the second round repeats every read
			for ni, cn := range live {
				for qi, q := range queries {
					want := ref.Search(q, 2)
					got, err := cn.SearchContext(context.Background(), q, 2)
					if err != nil {
						t.Fatalf("%s: node %d query %d: %v", phase, ni, qi, err)
					}
					if !reflect.DeepEqual(got.Answers, want.Answers) || !reflect.DeepEqual(got.Distances, want.Distances) {
						t.Fatalf("%s: node %d query %d round %d: answers %v %v, the oracle says %v %v",
							phase, ni, qi, round, got.Answers, got.Distances, want.Answers, want.Distances)
					}
					wantNS := ref.SearchKNN(q, 3, 6)
					gotNS, err := cn.SearchKNNContext(context.Background(), q, 3, 6)
					if err != nil {
						t.Fatalf("%s: node %d query %d knn: %v", phase, ni, qi, err)
					}
					if len(gotNS) != len(wantNS) || (len(gotNS) > 0 && !reflect.DeepEqual(gotNS, wantNS)) {
						t.Fatalf("%s: node %d query %d round %d: kNN %v, the oracle says %v", phase, ni, qi, round, gotNS, wantNS)
					}
				}
			}
		}
	}
	write := func(via *pis.ClusterNode, inserts []*pis.Graph, deletes ...int32) {
		t.Helper()
		for _, g := range inserts {
			if _, err := ref.Insert(g); err != nil {
				t.Fatal(err)
			}
			if _, err := via.Insert(g); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range deletes {
			if _, err := ref.Delete(id); err != nil {
				t.Fatal(err)
			}
			if _, err := via.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}

	check("warm", nodes...)
	write(nodes[0], extra[:3], 7)
	check("after writes", nodes...)

	if err := nodes[2].Close(); err != nil {
		t.Fatal(err)
	}
	nodes[0].CheckPeers()
	nodes[1].CheckPeers()
	write(nodes[0], extra[3:7], 20, ref.Search(queries[0], 2).Answers[0])
	check("one node down", nodes[0], nodes[1])

	cn2, err := pis.StartClusterNode(pis.ClusterOptions{
		Self: addrs[2], Peers: addrs, Shards: 3, Replication: 2,
		DataDir: dirs[2], Graphs: graphs, Options: clusterTestOpts, PingInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cn2.Close()
	nodes[0].CheckPeers()
	nodes[1].CheckPeers()
	cn2.CheckPeers()
	check("after catch-up", nodes[0], nodes[1], cn2)
	write(nodes[1], extra[7:], 31)
	check("after a write to the readmitted node", nodes[0], nodes[1], cn2)

	if memoHits() == hits0 {
		t.Fatal("no replica ever answered from its result memo")
	}
}

// TestClusterReportsWhatDatabaseReports: a cluster and a sharded
// database over the same graphs, given the same inserts and deletes,
// report the same index figures, and after a reopen that has not
// checkpointed the same durability figures: both sum one card per shard
// by one rule. Only the cluster block differs, and the graph walk
// (Database.GraphBytes) a ClusterNode does not do.
func TestClusterReportsWhatDatabaseReports(t *testing.T) {
	graphs := gen.Molecules(60, gen.Config{Seed: 31})
	extra := gen.Molecules(66, gen.Config{Seed: 32})[60:]
	dbDir := filepath.Join(t.TempDir(), "db")
	db, err := pis.CreateSharded(dbDir, graphs, 3, clusterTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	addrs := clusterAddrs(t, 3)
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	nodes := startTestCluster(t, addrs, 3, 2, dirs, graphs)
	for i, g := range extra {
		want, err := db.Insert(g)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := nodes[0].Insert(g); err != nil || got != want {
			t.Fatalf("cluster insert %d: id %d, %v; the database gave id %d", i, got, err, want)
		}
	}
	for _, id := range []int32{4, 33, 61} {
		want, err := db.Delete(id)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := nodes[2].Delete(id); err != nil || got != want {
			t.Fatalf("cluster delete %d: %v, %v; the database found it: %v", id, got, err, want)
		}
	}
	sameStats := func(when string, cn *pis.ClusterNode) {
		t.Helper()
		gotAll, wantAll := cn.Stats(), db.Stats()
		if gotAll.Cluster == nil || wantAll.Cluster != nil {
			t.Errorf("%s: cluster block %+v through the cluster, %+v in the database; want one and none", when, gotAll.Cluster, wantAll.Cluster)
		}
		if n := db.GraphBytes(); n == 0 {
			t.Errorf("%s: graph bytes %d in the database; want more", when, n)
		}
		got, want := gotAll.Index, wantAll.Index
		if got != want || want.Delta != 6 || want.Tombstones != 3 {
			t.Errorf("%s: cluster Stats() = %+v, database %+v (6 delta, 3 tombstones)", when, got, want)
		}
	}
	sameStats("after the mutations", nodes[1])

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, cn := range nodes {
		if err := cn.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if db, err = pis.Open(dbDir, clusterTestOpts); err != nil {
		t.Fatal(err)
	}
	nodes = startTestCluster(t, addrs, 3, 2, dirs, graphs)
	sameStats("reopened", nodes[0])
	got, want := nodes[0].Stats().Durability, db.Stats().Durability
	if !want.Durable || want.WALRecords != 9 || want.ReplayedRecords != 9 || !want.LastCheckpoint.IsZero() {
		t.Fatalf("reopened database Stats().Durability = %+v, want 9 WAL records replayed and no checkpoint", want)
	}
	if got.Durable != want.Durable || got.WALRecords != want.WALRecords || got.WALBytes != want.WALBytes ||
		got.SnapshotSeq != want.SnapshotSeq || got.ReplayedRecords != want.ReplayedRecords ||
		got.LastCheckpoint.IsZero() != want.LastCheckpoint.IsZero() {
		t.Errorf("reopened cluster Stats().Durability = %+v, database %+v", got, want)
	}
}

// TestClusterBootstrapSharesOneFeatureSet: two nodes that each bootstrap
// a different shard from the same Graphs index both under the one feature
// set mined over the whole of Graphs, and the cluster counts it once.
func TestClusterBootstrapSharesOneFeatureSet(t *testing.T) {
	graphs := shapeFamilies(80, 3)
	want := wholeInputClassKeys(t, graphs)
	addrs := clusterAddrs(t, 2)
	// The smallest shard count at which each node owns a shard of its own.
	var placement [][]string
	for shards := 2; ; shards++ {
		if shards > 16 {
			t.Fatalf("no placement of up to 16 shards gives both of %v a shard", addrs)
		}
		placement = cluster.Place(shards, addrs, 1)
		if len(cluster.Owned(placement, addrs[0])) > 0 && len(cluster.Owned(placement, addrs[1])) > 0 {
			break
		}
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	nodes := startTestCluster(t, addrs, len(placement), 1, dirs, graphs)
	if got := nodes[0].Stats().Index.Features; got != len(want) {
		t.Errorf("cluster Stats().Features = %d, want the %d features of the set", got, len(want))
	}
	for _, cn := range nodes {
		if err := cn.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i, addr := range addrs {
		for _, sh := range cluster.Owned(placement, addr) {
			if got := storeClassKeys(t, store.ShardDir(dirs[i], sh)); !slices.Equal(got, want) {
				t.Errorf("node %d bootstrapped shard %d with %d classes, not the list of %d mined over the whole input", i, sh, len(got), len(want))
			}
		}
	}
}
