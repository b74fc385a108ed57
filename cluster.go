package pis

// Multi-node serving: StartClusterNode turns this process into one node
// of a replicated cluster. Every node plays both roles at once — it
// serves its owned shard replicas over the shard RPC (internal/cluster
// Node) and routes queries and mutations to the whole cluster
// (internal/cluster Coordinator), so any node's HTTP endpoint answers
// for the full database. Placement is rendezvous-hashed from the shared
// peer list: no leader, no root manifest, every node derives the same
// map from the same flags.
//
// Verification is exact, so a query's answer set does not depend on
// which replica of each shard computes it — the property the
// cluster-vs-single-process differential tests pin down, including
// while a node is being killed mid-query.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"pis/internal/cluster"
	"pis/internal/mining"
	"pis/internal/segment"
	"pis/internal/shard"
	"pis/internal/store"
)

// ErrUnavailable reports that some shard had no live replica to answer
// (quorum loss). The HTTP server maps it to 503.
var ErrUnavailable = cluster.ErrUnavailable

// ClusterOptions configures one node of a replicated cluster.
type ClusterOptions struct {
	// Self is this node's shard-RPC listen address. It must appear
	// verbatim in Peers — it is also the node's identity in the
	// placement map.
	Self string
	// Peers is every node's shard-RPC address, identical (as a set) on
	// every node.
	Peers []string
	// Shards is the global shard count (default: one per peer). It must
	// be identical on every node.
	Shards int
	// Replication is the number of replicas per shard (default 1,
	// clamped to len(Peers)).
	Replication int
	// DataDir is this node's durable root; each owned shard stores under
	// DataDir/shard-NNN. Empty means in-memory replicas: fine for tests,
	// but a restarted in-memory node cannot catch up from its peers'
	// WALs and will stay excluded until wiped peers re-bootstrap.
	DataDir string
	// Graphs bootstraps shards that exist nowhere yet — neither in this
	// node's DataDir nor on any peer. Every node must pass the same
	// slice in the same order so independently bootstrapped replicas are
	// identical.
	Graphs []*Graph
	// Options tunes mining, search, and durability exactly as for New:
	// each owned replica is configured like a shard of a Database.
	Options Options

	// PingInterval paces the coordinator's health loop (default 1s;
	// negative disables it, for tests driving CheckPeers directly).
	PingInterval time.Duration
}

// ClusterNode is one running cluster member: a shard-RPC server for its
// owned replicas plus a coordinator over the whole cluster. Its search
// methods are the query surface it shares with *Database (query.go),
// fanning out over the cluster's shards — each answered by whichever
// replica responds first, hedged after a p95-derived delay — and merged
// exactly like the single-process fan-out; it implements the same
// backend surface, so server.New can front it unchanged.
type ClusterNode struct {
	querySurface
	co        *cluster.Coordinator
	node      *cluster.Node
	segs      map[int]*segment.Segment
	closeOnce sync.Once
	closeErr  error
}

// StartClusterNode boots this node: recover owned shards from DataDir,
// catch them up from peer replicas (WAL shipping, or a full snapshot
// transfer when too far behind), bootstrap any shard that exists
// nowhere, then start serving RPCs and connect the coordinator.
func StartClusterNode(copts ClusterOptions) (*ClusterNode, error) {
	if len(copts.Peers) == 0 {
		return nil, fmt.Errorf("pis: cluster needs at least one peer")
	}
	selfOK := false
	for _, p := range copts.Peers {
		if p == copts.Self {
			selfOK = true
			break
		}
	}
	if !selfOK {
		return nil, fmt.Errorf("pis: self address %q is not in the peer list", copts.Self)
	}
	if copts.Shards <= 0 {
		copts.Shards = len(copts.Peers)
	}
	opts, err := copts.Options.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	segCfg := opts.segmentConfig()

	placement := cluster.Place(copts.Shards, copts.Peers, copts.Replication)
	owned := cluster.Owned(placement, copts.Self)

	// Listen before recovering: peers booting concurrently can already
	// probe us (they see "shard not hosted yet" and fall back to their
	// own bootstrap, which builds the identical replica).
	node, err := cluster.NewNode(copts.Self)
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	cn := &ClusterNode{node: node, segs: make(map[int]*segment.Segment)}
	fail := func(err error) (*ClusterNode, error) {
		cn.Close()
		return nil, err
	}

	ranges := shard.Split(len(copts.Graphs), copts.Shards)
	// Selected over the prefix of all of Graphs, so every node derives the
	// same features; only a shard that must be bootstrapped asks for them,
	// and the node mines at most once.
	feats := sync.OnceValues(func() ([]mining.Feature, error) { return selectFeatures(copts.Graphs, opts.MaxFragmentEdges) })
	bootCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, idx := range owned {
		var others []string
		for _, p := range placement[idx] {
			if p != copts.Self {
				others = append(others, p)
			}
		}
		seg, err := openOwnedShard(bootCtx, copts, segCfg, feats, idx, others, ranges)
		if err != nil {
			return fail(err)
		}
		cn.segs[idx] = seg
		node.SetShard(idx, seg)
	}

	co, err := cluster.Connect(cluster.Config{
		Peers:        copts.Peers,
		Shards:       copts.Shards,
		Replication:  copts.Replication,
		PingInterval: copts.PingInterval,
	})
	if err != nil {
		return fail(fmt.Errorf("pis: %w", err))
	}
	cn.co = co
	cn.querySurface = querySurface{shards: co.Searchers(), queryTimeout: opts.QueryTimeout}
	return cn, nil
}

// openOwnedShard recovers, catches up, transfers, or bootstraps one
// owned shard replica, in that order of preference.
func openOwnedShard(ctx context.Context, copts ClusterOptions, segCfg segment.Config, features func() ([]mining.Feature, error), idx int, others []string, ranges []shard.Range) (*segment.Segment, error) {
	var seg *segment.Segment
	dir := ""
	if copts.DataDir != "" {
		dir = store.ShardDir(copts.DataDir, idx)
		if _, err := os.Stat(dir); err == nil {
			s, err := segment.OpenDurable(dir, segCfg)
			if err != nil {
				return nil, fmt.Errorf("pis: recover shard %d: %w", idx, err)
			}
			seg = s
		}
		// Catch up from whichever peer replica is ahead; with no local
		// copy this transfers the full file set when a peer has one.
		s, err := cluster.SyncShard(ctx, seg, dir, segCfg, idx, others)
		if err != nil {
			return nil, fmt.Errorf("pis: %w", err)
		}
		seg = s
	}
	if seg != nil {
		return seg, nil
	}
	// Nowhere to recover from: bootstrap this shard's contiguous slice
	// of the shared graph list under the database's features. Identical
	// inputs and a deterministic build mean every replica bootstraps the
	// same segment.
	if idx >= len(ranges) {
		return nil, fmt.Errorf("pis: shard %d has no replica anywhere and only %d bootstrap graphs for %d shards", idx, len(copts.Graphs), copts.Shards)
	}
	r := ranges[idx]
	graphs := copts.Graphs[r.Start:r.End]
	if len(graphs) == 0 {
		return nil, fmt.Errorf("pis: shard %d has no replica anywhere and no bootstrap graphs", idx)
	}
	feats, err := features()
	if err != nil {
		return nil, fmt.Errorf("pis: bootstrap shard %d: %w", idx, err)
	}
	s, err := segment.New(graphs, int32(r.Start), feats, segCfg)
	if err == nil && dir != "" {
		err = s.Persist(dir)
	}
	if err != nil {
		return nil, fmt.Errorf("pis: bootstrap shard %d: %w", idx, err)
	}
	return s, nil
}

// Addr returns the node's bound shard-RPC address (useful with :0 —
// but note placement identity uses the configured Self string).
func (cn *ClusterNode) Addr() string { return cn.node.Addr() }

// Close stops the coordinator, the RPC listener, and the owned shard
// replicas' stores.
func (cn *ClusterNode) Close() error {
	cn.closeOnce.Do(func() {
		if cn.co != nil {
			cn.co.Close()
		}
		err := cn.node.Close()
		for _, seg := range cn.segs {
			if cerr := seg.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		cn.closeErr = err
	})
	return cn.closeErr
}

// opTimeout bounds cluster control-plane calls (mutations, lookups,
// stats) issued through the context-free backend surface.
const opTimeout = 30 * time.Second

// Len returns the cluster's live graph count (coordinator's cached
// view, refreshed by the health loop and mutation acks).
func (cn *ClusterNode) Len() int { return cn.co.Len() }

// Graph fetches one graph by id from any live replica; nil if absent
// (or no replica holding it is reachable).
func (cn *ClusterNode) Graph(id int32) *Graph {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	g, err := cn.co.Graph(ctx, id)
	if err != nil {
		return nil
	}
	return g
}

// Insert routes the graph to a shard (round-robin under a cluster-wide
// mutation order) and replicates it to every live replica; at least one
// replica must fsync-and-ack. A replica that misses the insert is
// excluded from reads until it restarts and catches up.
func (cn *ClusterNode) Insert(g *Graph) (int32, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	id, err := cn.co.Insert(ctx, g)
	if err != nil {
		return -1, err
	}
	return id, nil
}

// Delete tombstones the id on every replica that holds it; found on any
// live replica means found.
func (cn *ClusterNode) Delete(id int32) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	return cn.co.Delete(ctx, id)
}

// Compact folds deltas on every reachable node.
func (cn *ClusterNode) Compact() error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	return cn.co.Compact(ctx)
}

// Checkpoint snapshots every reachable node's shards.
func (cn *ClusterNode) Checkpoint() error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	return cn.co.Checkpoint(ctx)
}

// Stats runs one cluster overview: one status RPC to every readable
// peer, whose cards (the freshest replica of each covered shard; replicas
// are interchangeable) sum as a Database sums its shards, beside the
// membership. No graph is walked.
func (cn *ClusterNode) Stats() Stats {
	m, total := cn.co.Overview()
	out := statsOf(total)
	out.Cluster = &m
	return out
}

// ClusterStats is a cluster node's membership: peers, shards covered by a
// readable replica and the replica count (see cluster.Membership).
type ClusterStats = cluster.Membership

// NumShards returns the cluster's global shard count.
func (cn *ClusterNode) NumShards() int { return cn.co.NumShards() }

// CheckPeers runs one synchronous health sweep (reachability, replica
// lag, stale-replica readmission). The background loop does this on
// PingInterval; tests call it to make state transitions deterministic.
func (cn *ClusterNode) CheckPeers() { cn.co.CheckPeers() }
