// Unit tests for the cluster plumbing: placement properties, the RPC
// round trip, hedged requests (including the no-goroutine-leak
// property under -race), failover, and shard catch-up via WAL shipping
// and full file transfer. End-to-end differential tests against the
// single-process database live in the root package's cluster_test.go.

package cluster

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
	"pis/internal/segment"
	"pis/internal/shard"
	"pis/internal/store"
)

func testGraph(rng *rand.Rand) *graph.Graph {
	n := 3 + rng.Intn(5)
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VLabel(rng.Intn(3)))
	}
	for v := int32(1); v < int32(n); v++ {
		b.AddEdge(rng.Int31n(v), v, graph.ELabel(rng.Intn(2)))
	}
	return b.MustBuild()
}

func testGraphs(n int, seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*graph.Graph, n)
	for i := range graphs {
		graphs[i] = testGraph(rng)
	}
	return graphs
}

func testConfig() segment.Config {
	return segment.Config{
		Index:           index.Options{Metric: distance.EdgeMutation{}},
		CompactFraction: -1,
	}
}

// testFeatures mines the features a test segment over graphs is built with.
func testFeatures(tb testing.TB, graphs []*graph.Graph) []mining.Feature {
	tb.Helper()
	feats, err := mining.Mine(graphs, mining.Options{MaxEdges: 3, MinEdges: 2, MinSupportFraction: 0.1, SampleSize: 16})
	if err != nil {
		tb.Fatal(err)
	}
	return feats
}

func newSegment(t *testing.T, graphs []*graph.Graph, startID int32) *segment.Segment {
	t.Helper()
	seg, err := segment.New(graphs, startID, testFeatures(t, graphs), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// --- placement ---

func TestPlacementProperties(t *testing.T) {
	peers := []string{"a:1", "b:1", "c:1", "d:1"}
	p := Place(16, peers, 2)
	if len(p) != 16 {
		t.Fatalf("got %d shards", len(p))
	}
	counts := map[string]int{}
	for s, reps := range p {
		if len(reps) != 2 {
			t.Fatalf("shard %d: %d replicas, want 2", s, len(reps))
		}
		if reps[0] == reps[1] {
			t.Fatalf("shard %d: duplicate replica %s", s, reps[0])
		}
		for _, r := range reps {
			counts[r]++
		}
	}
	// Each shard lists first the peer of its set that the fewest earlier
	// shards list first, the higher score on a tie.
	prefers := map[string]int{}
	for s, reps := range p {
		for _, r := range reps[1:] {
			if pr, p0 := prefers[r], prefers[reps[0]]; pr < p0 || pr == p0 && rendezvousScore(s, r) > rendezvousScore(s, reps[0]) {
				t.Errorf("shard %d prefers %s (%d earlier shards) over %s (%d)", s, reps[0], p0, r, pr)
			}
		}
		prefers[reps[0]]++
	}
	// Deterministic and order-independent of the peer list.
	shuffled := []string{"c:1", "a:1", "d:1", "b:1"}
	p2 := Place(16, shuffled, 2)
	if !reflect.DeepEqual(p, p2) {
		t.Fatal("placement depends on peer list order")
	}
	// Every peer carries some load (16 shards × 2 replicas over 4 peers;
	// rendezvous spreads far better than the ≥1 asserted here).
	for _, peer := range peers {
		if counts[peer] == 0 {
			t.Errorf("peer %s owns nothing", peer)
		}
	}
	// Removing one peer must not reshuffle shards between survivors.
	p3 := Place(16, []string{"a:1", "b:1", "c:1"}, 2)
	for s := range p3 {
		for _, r := range p3[s] {
			was := false
			for _, old := range append(p[s], "d:1") {
				if r == old {
					was = true
				}
			}
			// A survivor may newly join a shard only to replace d.
			if !was && !contains(p[s], "d:1") {
				t.Errorf("shard %d gained %s though d held no replica", s, r)
			}
		}
	}

	if got := Owned(p, "a:1"); len(got) != counts["a:1"] {
		t.Errorf("Owned(a) = %d shards, counts say %d", len(got), counts["a:1"])
	}
	// Replication clamps to the peer count.
	if reps := Place(1, []string{"x:1"}, 3)[0]; len(reps) != 1 {
		t.Errorf("clamped replication: got %d replicas", len(reps))
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// --- RPC round trip ---

// startNode serves segs as shards 0..len-1 on an ephemeral port.
func startNode(t *testing.T, segs ...*segment.Segment) *Node {
	t.Helper()
	n, err := NewNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	for i, seg := range segs {
		n.SetShard(i, seg)
	}
	return n
}

func TestRemoteShardMatchesLocal(t *testing.T) {
	graphs := testGraphs(30, 7)
	// Two segments over the same graphs, so that each answers every query
	// cold: a second read of one would be a memo hit with other counters.
	seg, served := newSegment(t, graphs, 0), newSegment(t, graphs, 0)
	defer seg.Close()
	defer served.Close()
	node := startNode(t, served)

	co, err := Connect(Config{Peers: []string{node.Addr()}, Shards: 1, Replication: 1, PingInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	ctx := context.Background()
	for qi, q := range graphs[:8] {
		for _, sigma := range []float64{0, 1.5, 3} {
			want, err := seg.SearchCtx(ctx, q, sigma)
			if err != nil {
				t.Fatal(err)
			}
			got, err := shard.FanOutSearch(ctx, co.Searchers(), q, sigma)
			if err != nil {
				t.Fatalf("query %d σ=%g: %v", qi, sigma, err)
			}
			if !reflect.DeepEqual(got.Answers, want.Answers) || !reflect.DeepEqual(got.Distances, want.Distances) {
				t.Errorf("query %d σ=%g: got %v/%v want %v/%v", qi, sigma, got.Answers, got.Distances, want.Answers, want.Distances)
			}
			if got.Stats.Verified != want.Stats.Verified || got.Stats.VerifyCacheHits != want.Stats.VerifyCacheHits {
				t.Errorf("query %d σ=%g: stats did not survive the wire: %+v want %+v", qi, sigma, got.Stats, want.Stats)
			}
		}
		wantNS, err := seg.SearchKNNCtx(ctx, q, 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		gotNS, err := shard.FanOutKNN(ctx, co.Searchers(), q, 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotNS, wantNS) {
			t.Errorf("query %d knn: got %v want %v", qi, gotNS, wantNS)
		}
	}
}

// TestRemoteShardRejectsTrailingBytes: a shard RPC with a byte after its
// last field — a request laid out by another build — gets a remote error
// before the node searches or inserts, while the exact request is served.
func TestRemoteShardRejectsTrailingBytes(t *testing.T) {
	graphs := testGraphs(20, 17)
	seg := newSegment(t, graphs, 0)
	defer seg.Close()
	p := newPeer(startNode(t, seg).Addr())
	defer p.closeIdle()
	ctx := context.Background()
	q, g := graphs[3], testGraph(rand.New(rand.NewSource(5)))
	for _, rpc := range []struct {
		name string
		op   byte
		req  []byte
	}{
		{"search", opSearch, apGraph(apF64(apUv(nil, 0), 2), q)},
		{"knn", opKNN, apGraph(apF64(apUv(apUv(nil, 0), 3), 4), q)},
		{"insert", opInsert, apGraph(apU32(apUv(nil, 0), 20), g)},
	} {
		var re *remoteError
		if err := p.call(ctx, rpc.op, append(slices.Clone(rpc.req), 0), nil); !errors.As(err, &re) {
			t.Errorf("%s with a trailing byte: err = %v, want a remote error", rpc.name, err)
		}
		if seg.MutSeq() != 0 {
			t.Fatalf("%s with a trailing byte was applied: MutSeq %d", rpc.name, seg.MutSeq())
		}
		if err := p.call(ctx, rpc.op, rpc.req, nil); err != nil {
			t.Errorf("%s: %v", rpc.name, err)
		}
	}
	if seg.MutSeq() != 1 {
		t.Fatalf("MutSeq %d after one exact insert, want 1", seg.MutSeq())
	}
}

func TestCoordinatorMutations(t *testing.T) {
	graphs := testGraphs(20, 11)
	segA := newSegment(t, graphs, 0)
	defer segA.Close()
	segB := newSegment(t, graphs, 0)
	defer segB.Close()
	nodeA := startNode(t, segA)
	nodeB := startNode(t, segB)

	co, err := Connect(Config{Peers: []string{nodeA.Addr(), nodeB.Addr()}, Shards: 1, Replication: 2, PingInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	ctx := context.Background()
	g := testGraph(rand.New(rand.NewSource(99)))
	id, err := co.Insert(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if id != 20 {
		t.Fatalf("insert id = %d, want 20", id)
	}
	// Both replicas applied it, in the same sequence position.
	if segA.MutSeq() != 1 || segB.MutSeq() != 1 {
		t.Fatalf("mutSeq A=%d B=%d, want 1/1", segA.MutSeq(), segB.MutSeq())
	}
	if segA.Graph(id) == nil || segB.Graph(id) == nil {
		t.Fatal("insert did not reach both replicas")
	}
	if co.Len() != 21 {
		t.Fatalf("Len = %d, want 21", co.Len())
	}

	found, err := co.Delete(ctx, id)
	if err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	if segA.Graph(id) != nil || segB.Graph(id) != nil {
		t.Fatal("delete did not reach both replicas")
	}
	if found, _ := co.Delete(ctx, 9999); found {
		t.Fatal("delete of unknown id reported found")
	}
}

func TestQuorumLossAndFailover(t *testing.T) {
	graphs := testGraphs(20, 13)
	segA := newSegment(t, graphs, 0)
	defer segA.Close()
	segB := newSegment(t, graphs, 0)
	defer segB.Close()
	nodeA := startNode(t, segA)
	nodeB := startNode(t, segB)

	co, err := Connect(Config{Peers: []string{nodeA.Addr(), nodeB.Addr()}, Shards: 1, Replication: 2, PingInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx := context.Background()

	// Kill the shard's preferred replica, which every read goes to first:
	// queries must fail over to the survivor.
	preferred, survivor := nodeA, nodeB
	if co.searchers[0].(*remoteShard).replicas[0].addr == nodeB.Addr() {
		preferred, survivor = nodeB, nodeA
	}
	preferred.Close()
	failovers := mFailovers.Value() + mHedges.Value()
	for i := 0; i < 4; i++ {
		if _, err := shard.FanOutSearch(ctx, co.Searchers(), graphs[i], 1); err != nil {
			t.Fatalf("query with one replica down: %v", err)
		}
	}
	if mFailovers.Value()+mHedges.Value() == failovers {
		t.Error("no failover or hedge recorded while a replica was down")
	}

	// Kill the second: quorum loss.
	survivor.Close()
	lost := mQuorumLost.Value()
	_, err = shard.FanOutSearch(ctx, co.Searchers(), graphs[0], 1)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if mQuorumLost.Value() == lost {
		t.Error("quorum loss not recorded")
	}
}

// TestReadAffinity: on a 3-node cluster of 3 shards held twice, every
// read of a shard goes to its preferred replica, the first of its set, so
// a repeated query is answered from that replica's memo; two coordinators
// given the peers in different orders prefer alike; a preferred replica
// marked down gets reads again once a health sweep finds it up; and with
// it dead, reads move to the other replica and stay exact. Only hedges
// (fired when a read outlasts the p95-derived delay) may read elsewhere.
func TestReadAffinity(t *testing.T) {
	const shards, perShard, n = 3, 12, 6
	graphs := testGraphs(shards*perShard, 41)
	var nodes []*Node
	var addrs []string
	for range 3 {
		nodes = append(nodes, startNode(t))
		addrs = append(addrs, nodes[len(nodes)-1].Addr())
	}
	local := make([]shard.Searcher, shards) // the single-process oracle
	for s, set := range Place(shards, addrs, 2) {
		part := graphs[s*perShard : (s+1)*perShard]
		feats := testFeatures(t, part)
		for i := range len(set) + 1 {
			seg, err := segment.New(part, int32(s*perShard), feats, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { seg.Close() })
			if i == len(set) {
				local[s] = seg
			} else {
				nodes[slices.Index(addrs, set[i])].SetShard(s, seg)
			}
		}
	}
	connect := func(peers []string) *Coordinator {
		co, err := Connect(Config{Peers: peers, Shards: shards, Replication: 2, PingInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(co.Close)
		return co
	}
	reversedAddrs := slices.Clone(addrs)
	slices.Reverse(reversedAddrs)
	co, reversed := connect(addrs), connect(reversedAddrs)
	order := func(co *Coordinator, s int) (out []string) {
		for _, ps := range co.searchers[s].(*remoteShard).replicas {
			out = append(out, ps.addr)
		}
		return out
	}
	prefers := make([]int, len(addrs)) // shards each peer serves reads of
	for s := range shards {
		if a, b := order(co, s), order(reversed, s); !slices.Equal(a, b) {
			t.Errorf("shard %d: replica order %v, %v with the peers reversed", s, a, b)
		}
		prefers[slices.Index(addrs, order(co, s)[0])]++
	}

	ctx := context.Background()
	// reads runs n exact searches and returns the successful RPCs each
	// peer served and the hedges fired meanwhile.
	reads := func(from int) ([]int, int) {
		count := func() (c []int) {
			for _, addr := range addrs {
				c = append(c, int(mRPCSeconds.With(addr).Snapshot().Count()))
			}
			return c
		}
		before, hedges := count(), mHedges.Value()
		for i := range n {
			q := graphs[(from+i)%len(graphs)]
			want, err := shard.FanOutSearch(ctx, local, q, 2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := shard.FanOutSearch(ctx, co.Searchers(), q, 2)
			if err != nil {
				t.Fatalf("search %d: %v", from+i, err)
			}
			if !reflect.DeepEqual(got.Answers, want.Answers) || !reflect.DeepEqual(got.Distances, want.Distances) {
				t.Errorf("search %d: got %v/%v want %v/%v", from+i, got.Answers, got.Distances, want.Answers, want.Distances)
			}
		}
		served := count()
		for i := range served {
			served[i] -= before[i]
		}
		return served, int(mHedges.Value() - hedges)
	}
	// offPreference sums how far each peer's reads are from its share. A
	// hedge moves at most two reads.
	offPreference := func(served []int) (off int) {
		for i := range served {
			off += max(served[i]-n*prefers[i], n*prefers[i]-served[i])
		}
		return off
	}

	// A hedge that wins the first read of graphs[0] cancels the preferred
	// replica's attempt before it fills its memo, so count hedges from here.
	h := mHedges.Value()
	if served, hedges := reads(0); offPreference(served) > 2*hedges {
		t.Fatalf("peers %v served %v shard reads over %d searches, want %v each times the shards they prefer %v (%d hedges)",
			addrs, served, n, n, prefers, hedges)
	}
	// Read again, the replica that answered first answers from its memo.
	res, err := shard.FanOutSearch(ctx, co.Searchers(), graphs[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if (res.Stats.MemoHits != shards || res.Stats.Verified != 0) && mHedges.Value() == h {
		t.Errorf("repeated search: %d memo hits and %d verified, want %d and 0", res.Stats.MemoHits, res.Stats.Verified, shards)
	}

	victim := slices.Index(addrs, order(co, 0)[0])
	co.peers[addrs[victim]].up.Store(false)
	if served, hedges := reads(n); served[victim] > hedges {
		t.Errorf("peer %s, marked down, served %d reads (%d hedges)", addrs[victim], served[victim], hedges)
	}
	co.CheckPeers()
	if served, hedges := reads(2 * n); offPreference(served) > 2*hedges {
		t.Errorf("after the health sweep peers served %v, want %v times %v (%d hedges)", served, n, prefers, hedges)
	}

	nodes[victim].Close()
	served, _ := reads(3 * n)
	total := 0
	for _, c := range served {
		total += c
	}
	if served[victim] != 0 || total < n*shards {
		t.Errorf("with %s dead, peers served %v, want 0 there and at least %d in all", addrs[victim], served, n*shards)
	}
}

// TestBroadcast: Compact and Checkpoint on a healthy cluster succeed and
// reach every replica, and with every peer down they fail with
// ErrUnavailable.
func TestBroadcast(t *testing.T) {
	graphs := testGraphs(16, 31)
	segA := durableSegment(t, filepath.Join(t.TempDir(), "a"), graphs, 0)
	defer segA.Close()
	segB := durableSegment(t, filepath.Join(t.TempDir(), "b"), graphs, 0)
	defer segB.Close()
	nodeA, nodeB := startNode(t, segA), startNode(t, segB)

	co, err := Connect(Config{Peers: []string{nodeA.Addr(), nodeB.Addr()}, Shards: 1, Replication: 2, PingInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx := context.Background()

	if _, err := co.Insert(ctx, testGraph(rand.New(rand.NewSource(3)))); err != nil {
		t.Fatal(err)
	}
	if err := co.Compact(ctx); err != nil {
		t.Fatalf("Compact on a healthy cluster: %v", err)
	}
	if err := co.Checkpoint(ctx); err != nil {
		t.Fatalf("Checkpoint on a healthy cluster: %v", err)
	}
	for name, seg := range map[string]*segment.Segment{"A": segA, "B": segB} {
		if st := seg.Stats(); st.Delta != 0 || st.Store.Checkpoints == 0 {
			t.Errorf("replica %s: delta %d, checkpoints %d after the broadcasts; want 0 and > 0",
				name, st.Delta, st.Store.Checkpoints)
		}
	}

	nodeA.Close()
	nodeB.Close()
	if err := co.Compact(ctx); !errors.Is(err, ErrUnavailable) {
		t.Errorf("Compact with every peer down: %v, want ErrUnavailable", err)
	}
	if err := co.Checkpoint(ctx); !errors.Is(err, ErrUnavailable) {
		t.Errorf("Checkpoint with every peer down: %v, want ErrUnavailable", err)
	}
}

// tarpitCluster serves one shard over graphs from two replicas, the
// preferred one a tarpit (accepts connections, never answers), so a
// query's hedge fires and the real replica wins. It returns the
// coordinator, the real replica's segment and the tarpit's address.
func tarpitCluster(t *testing.T, graphs []*graph.Graph) (*Coordinator, *segment.Segment, string) {
	// Reserve two addresses, then assign roles so the tarpit lands on
	// the shard's preferred (first) replica.
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln1.Addr().String(), ln2.Addr().String()}
	reps := Place(1, addrs, 2)[0]
	tarpitLn, realAddr := ln1, addrs[1]
	if reps[0] == addrs[1] {
		tarpitLn, realAddr = ln2, addrs[0]
	}
	if tarpitLn.Addr().String() != reps[0] {
		t.Fatal("role assignment bug")
	}
	// The real node must listen on the reserved address: release it
	// first (ephemeral ports are not immediately reused on Linux).
	var realLn net.Listener = ln1
	if realLn.Addr().String() != realAddr {
		realLn = ln2
	}
	realLn.Close()
	t.Cleanup(func() { tarpitLn.Close() })
	go func() {
		for {
			c, err := tarpitLn.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, c); c.Close() }()
		}
	}()

	seg := newSegment(t, graphs, 0)
	t.Cleanup(func() { seg.Close() })
	node, err := NewNode(realAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	node.SetShard(0, seg)

	co, err := Connect(Config{Peers: addrs, Shards: 1, Replication: 2, PingInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co, seg, reps[0]
}

// hedgeQueries runs five queries that only the hedge can answer and
// checks their answers. The tarpit failed its opStats probe, and
// transport errors re-mark it down: each query forces it "up" so the
// hedging path — not failover ordering — is what rescues the query.
func hedgeQueries(t *testing.T, co *Coordinator, seg *segment.Segment, tarpit string, graphs []*graph.Graph) {
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		co.peers[tarpit].up.Store(true)
		r, err := shard.FanOutSearch(ctx, co.Searchers(), graphs[i], 1.5)
		if err != nil {
			t.Fatalf("hedged query %d: %v", i, err)
		}
		want, _ := seg.SearchCtx(ctx, graphs[i], 1.5)
		if !reflect.DeepEqual(r.Answers, want.Answers) {
			t.Fatalf("hedged query %d: wrong answers", i)
		}
	}
}

// settle waits up to 5 s for the losing attempts to unwind (their
// connections are closed by the per-call cancel), and returns the
// goroutine count then.
func settle(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base+2 {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestHedgedRequest checks that against a tarpit the hedge fires, the
// secondary wins, and no goroutine is left behind once the dust settles.
func TestHedgedRequest(t *testing.T) {
	graphs := testGraphs(25, 17)
	co, seg, tarpit := tarpitCluster(t, graphs)

	base := runtime.NumGoroutine()
	hedges, wins := mHedges.Value(), mHedgeWins.Value()
	hedgeQueries(t, co, seg, tarpit, graphs)
	if mHedges.Value() <= hedges {
		t.Error("no hedge fired")
	}
	if mHedgeWins.Value() <= wins {
		t.Error("no hedge win recorded")
	}
	if n := settle(base); n > base+2 {
		t.Errorf("goroutine leak after hedged queries: %d, baseline %d", n, base)
	}
}

// TestHedgeLoserIsNotAnRPCError checks that the attempt a winning hedge
// cancels is not counted in pis_cluster_rpc_errors_total: the tarpit
// never failed, it was overtaken.
func TestHedgeLoserIsNotAnRPCError(t *testing.T) {
	graphs := testGraphs(25, 17)
	co, seg, tarpit := tarpitCluster(t, graphs)

	base := runtime.NumGoroutine()
	errs, wins := mRPCErrors.Value(tarpit), mHedgeWins.Value()
	hedgeQueries(t, co, seg, tarpit, graphs)
	settle(base)
	if mHedgeWins.Value() <= wins {
		t.Fatal("no hedge win recorded")
	}
	if n := mRPCErrors.Value(tarpit) - errs; n != 0 {
		t.Errorf("%d cancelled hedge losers counted as RPC errors of %s", n, tarpit)
	}
}

// --- catch-up ---

func durableSegment(t *testing.T, dir string, graphs []*graph.Graph, startID int32) *segment.Segment {
	t.Helper()
	seg := newSegment(t, graphs, startID)
	if err := seg.Persist(dir); err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestSyncShardWALShip(t *testing.T) {
	graphs := testGraphs(16, 19)
	dirA, dirB := filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")
	segA := durableSegment(t, dirA, graphs, 0)
	defer segA.Close()
	segB := durableSegment(t, dirB, graphs, 0)

	// B misses three mutations.
	rng := rand.New(rand.NewSource(3))
	var newIDs []int32
	for i := 0; i < 2; i++ {
		id := int32(16 + i)
		if _, err := segA.Insert(testGraph(rng), id); err != nil {
			t.Fatal(err)
		}
		newIDs = append(newIDs, id)
	}
	if _, err := segA.Delete(3); err != nil {
		t.Fatal(err)
	}

	// Restart B and catch up over the wire.
	if err := segB.Close(); err != nil {
		t.Fatal(err)
	}
	nodeA := startNode(t, segA)
	segB, err := segment.OpenDurable(dirB, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	segB, err = SyncShard(context.Background(), segB, dirB, testConfig(), 0, []string{nodeA.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer segB.Close()

	if segB.MutSeq() != segA.MutSeq() {
		t.Fatalf("mutSeq after WAL ship: B=%d A=%d", segB.MutSeq(), segA.MutSeq())
	}
	for _, id := range newIDs {
		if segB.Graph(id) == nil {
			t.Errorf("shipped insert %d missing on B", id)
		}
	}
	if segB.Graph(3) != nil {
		t.Error("shipped delete of 3 not applied on B")
	}
	// The shipped mutations were re-logged locally: another restart
	// keeps them without any peer.
	if err := segB.Close(); err != nil {
		t.Fatal(err)
	}
	segB, err = segment.OpenDurable(dirB, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if segB.MutSeq() != segA.MutSeq() || segB.Graph(newIDs[0]) == nil {
		t.Error("shipped mutations lost across a second restart")
	}
}

func TestSyncShardFullTransfer(t *testing.T) {
	graphs := testGraphs(16, 23)
	dirA := filepath.Join(t.TempDir(), "a")
	segA := durableSegment(t, dirA, graphs, 0)
	defer segA.Close()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		if _, err := segA.Insert(testGraph(rng), int32(16+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint truncates A's WAL, so any replica behind this point
	// needs the full file set.
	if err := segA.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	nodeA := startNode(t, segA)

	// A brand-new replica (no local copy at all).
	dirB := filepath.Join(t.TempDir(), "b")
	segB, err := SyncShard(context.Background(), nil, dirB, testConfig(), 0, []string{nodeA.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer segB.Close()
	if segB.MutSeq() != segA.MutSeq() {
		t.Fatalf("mutSeq after transfer: B=%d A=%d", segB.MutSeq(), segA.MutSeq())
	}
	if segB.Live() != segA.Live() {
		t.Fatalf("live after transfer: B=%d A=%d", segB.Live(), segA.Live())
	}
	for _, id := range []int32{0, 16, 17, 18} {
		if segB.Graph(id) == nil {
			t.Errorf("graph %d missing after transfer", id)
		}
	}

	// A stale replica whose gap predates the WAL takes the same path.
	dirC := filepath.Join(t.TempDir(), "c")
	segC := durableSegment(t, dirC, graphs, 0)
	if err := segC.Close(); err != nil {
		t.Fatal(err)
	}
	segC, err = segment.OpenDurable(dirC, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	segC, err = SyncShard(context.Background(), segC, dirC, testConfig(), 0, []string{nodeA.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer segC.Close()
	if segC.MutSeq() != segA.MutSeq() || segC.Graph(17) == nil {
		t.Errorf("stale replica not replaced: mutSeq C=%d A=%d", segC.MutSeq(), segA.MutSeq())
	}
}

// TestStaleReadmission walks the full replica lifecycle: miss a
// mutation, get excluded, restart, catch up, and rejoin only after the
// coordinator's sequence check passes.
func TestStaleReadmission(t *testing.T) {
	graphs := testGraphs(16, 29)
	dirA, dirB := filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")
	segA := durableSegment(t, dirA, graphs, 0)
	defer segA.Close()
	segB := durableSegment(t, dirB, graphs, 0)
	nodeA := startNode(t, segA)
	nodeB, err := NewNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nodeB.SetShard(0, segB)
	addrB := nodeB.Addr()

	co, err := Connect(Config{Peers: []string{nodeA.Addr(), addrB}, Shards: 1, Replication: 2, PingInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx := context.Background()

	// Kill B mid-life; the next insert marks it stale.
	nodeB.Close()
	segB.Close()
	rng := rand.New(rand.NewSource(7))
	if _, err := co.Insert(ctx, testGraph(rng)); err != nil {
		t.Fatal(err)
	}
	psB := co.peers[addrB]
	if !psB.stale.Load() {
		t.Fatal("B not marked stale after missing an insert")
	}
	co.CheckPeers() // unreachable: must stay stale
	if !psB.stale.Load() {
		t.Fatal("unreachable B readmitted")
	}

	// Restart B on the same address (new epoch), catch up, sweep again.
	segB, err = segment.OpenDurable(dirB, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	segB, err = SyncShard(ctx, segB, dirB, testConfig(), 0, []string{nodeA.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer segB.Close()
	nodeB2, err := NewNode(addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB2.Close()
	nodeB2.SetShard(0, segB)

	co.CheckPeers()
	if psB.stale.Load() {
		t.Fatal("caught-up B not readmitted")
	}
	// And it now receives writes again.
	if _, err := co.Insert(ctx, testGraph(rng)); err != nil {
		t.Fatal(err)
	}
	if segB.MutSeq() != segA.MutSeq() {
		t.Fatalf("readmitted B missed a write: B=%d A=%d", segB.MutSeq(), segA.MutSeq())
	}
}

// Keep the store import used even if individual tests evolve; the
// catch-up tests depend on its WAL record types via the wire.
var _ = store.OpInsert
var _ shard.Searcher = (*remoteShard)(nil)
