// Cluster-wide aggregation: one Overview sums every shard's card with
// segment.Stats.Add, the rule the single-process database sums its
// shards by, so /stats against a coordinator reads like /stats against a
// local database — plus the cluster block (peers up, shards covered).
// Each shard is counted once, from its freshest reachable replica;
// replicas are interchangeable by construction, so "freshest reachable"
// and "any readable copy" only differ while a mutation or catch-up is
// actually in flight.

package cluster

import (
	"context"
	"maps"
	"slices"
	"sync"

	"pis/internal/segment"
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
	// Total sums the cards of one replica of each covered shard
	// (segment.Stats.Add); it is the zero card when none is covered.
	Total segment.Stats
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
			ns, err := p.ps.state(context.Background())
			p.ns, p.ok = ns, err == nil
		}()
	}
	wg.Wait()
	return probes
}

// Overview polls every readable peer and aggregates. Unreachable peers
// are skipped; the result covers whatever subset answered.
func (c *Coordinator) Overview() Overview {
	ov := Overview{
		Peers:       len(c.peerAddrs),
		Shards:      c.cfg.Shards,
		Replication: c.cfg.Replication,
	}
	best := make(map[int]segment.Stats)
	for _, p := range c.probePeers((*peerState).readable) {
		if !p.ok {
			continue
		}
		ov.PeersUp++
		for _, st := range p.ns.Shards {
			if prev, seen := best[st.Shard]; !seen || st.MutSeq > prev.MutSeq {
				best[st.Shard] = st.Stats
			}
		}
	}
	ov.CoveredShards = len(best)
	for _, sh := range slices.Sorted(maps.Keys(best)) {
		ov.Total.Add(sh, best[sh])
	}
	return ov
}
