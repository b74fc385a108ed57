// Cluster-wide aggregation: one Overview rolls every node's per-shard
// state up into the same index/durability shape the single-process
// database reports, so /stats against a coordinator reads like /stats
// against a local database — plus the cluster block (peers up, shards
// covered). Each shard is counted once, from its freshest reachable
// replica; replicas are interchangeable by construction, so "freshest
// reachable" and "any readable copy" only differ while a mutation or
// catch-up is actually in flight.

package cluster

import (
	"context"
	"sync"

	"pis/internal/index"
)

// Overview is the coordinator's aggregate view of the cluster.
type Overview struct {
	// Peers and PeersUp count cluster membership vs. reachability;
	// Shards and CoveredShards count the keyspace vs. how much of it at
	// least one readable replica answered for. CoveredShards < Shards
	// means queries are failing with ErrUnavailable right now.
	Peers, PeersUp int
	Shards         int
	CoveredShards  int
	Replication    int

	// Index totals, summed over one replica of each covered shard, except
	// Classes: the shards share one feature set, so it is the largest
	// shard's class count.
	Live       int
	Classes    int
	Fragments  int
	Sequences  int
	Delta      int
	Tombstones int
	Memory     index.Memory

	// Durability totals. Durable reports whether every counted shard
	// has a checkpointed store behind it; SnapshotSeq is the lowest
	// (oldest) shard snapshot sequence, the conservative answer to "how
	// far back might recovery reach". A poisoned replica poisons the
	// aggregate, carrying the first reason seen.
	Durable         bool
	WALRecords      int64
	WALBytes        int64
	SnapshotSeq     uint64
	Checkpoints     int64
	LastCheckpoint  int64 // unix nanos of the oldest per-shard newest checkpoint
	ReplayedRecords int
	DroppedBytes    int64
	Poisoned        bool
	PoisonReason    string
}

// probe is one peer's opStats answer; ok is false when the peer failed
// or was not asked.
type probe struct {
	ps *peerState
	ns nodeState
	ok bool
}

// probePeers asks every peer that ask admits (every peer, for a nil ask)
// for its state, concurrently.
func (c *Coordinator) probePeers(ask func(*peerState) bool) []probe {
	probes := make([]probe, len(c.peerAddrs))
	var wg sync.WaitGroup
	for i, addr := range c.peerAddrs {
		p := &probes[i]
		if p.ps = c.peers[addr]; ask != nil && !ask(p.ps) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ns, err := c.nodeState(p.ps)
			p.ns, p.ok = ns, err == nil
		}()
	}
	wg.Wait()
	return probes
}

// Overview polls every readable peer and aggregates. Unreachable peers
// are skipped; the result covers whatever subset answered.
func (c *Coordinator) Overview(ctx context.Context) Overview {
	ov := Overview{
		Peers:       len(c.peerAddrs),
		Shards:      c.cfg.Shards,
		Replication: c.cfg.Replication,
		Durable:     true,
	}
	best := make(map[int]shardState)
	for _, p := range c.probePeers((*peerState).readable) {
		if !p.ok {
			continue
		}
		ov.PeersUp++
		for _, st := range p.ns.Shards {
			if prev, seen := best[st.Shard]; !seen || st.MutSeq > prev.MutSeq {
				best[st.Shard] = st
			}
		}
	}
	ov.CoveredShards = len(best)
	if len(best) == 0 {
		ov.Durable = false
		return ov
	}
	first := true
	for _, st := range best {
		ov.Live += st.Live
		ov.Classes = max(ov.Classes, st.Classes)
		ov.Fragments += st.Frags
		ov.Sequences += st.Seqs
		ov.Delta += st.Delta
		ov.Tombstones += st.Tombs
		ov.Memory.StoreBytes += st.Store
		ov.Memory.BitmapBytes += st.Bitmap
		ov.Memory.FingerprintBytes += st.FPs
		ov.WALRecords += st.WALRecords
		ov.WALBytes += st.WALBytes
		ov.Checkpoints += st.Checkpoints
		ov.ReplayedRecords += st.ReplayedRecords
		ov.DroppedBytes += st.DroppedBytes
		// A store always has snapshot seq >= 1 once persisted; 0 marks an
		// in-memory replica, which makes the cluster non-durable.
		if st.SnapshotSeq == 0 {
			ov.Durable = false
		}
		if first || st.SnapshotSeq < ov.SnapshotSeq {
			ov.SnapshotSeq = st.SnapshotSeq
		}
		if first || st.LastCheckpoint < ov.LastCheckpoint {
			ov.LastCheckpoint = st.LastCheckpoint
		}
		if st.Poisoned && !ov.Poisoned {
			ov.Poisoned = true
			ov.PoisonReason = st.PoisonReason
		}
		first = false
	}
	return ov
}
