// Cluster-wide aggregation: one Overview sums every shard's card with
// segment.Stats.Add, the rule the single-process database sums its
// shards by, so /stats against a coordinator reads like /stats against a
// local database — plus the cluster block (peers up, shards covered).
// Each shard is counted once, from its freshest reachable replica (the
// one rule, freshest, by which the health sweep and readmission pick a
// card too); replicas are interchangeable, so "freshest" and "any" only
// differ while a mutation or catch-up is actually in flight.

package cluster

import (
	"context"
	"maps"
	"slices"
	"sync"

	"pis/internal/segment"
)

// Membership is the cluster as one coordinator sees it, pis.ClusterStats.
// Peers and PeersUp count membership vs. reachability; Shards and
// CoveredShards the keyspace vs. the shards some readable replica answered
// for: fewer means queries are failing with ErrUnavailable right now.
type Membership struct {
	Peers         int `json:"peers"`
	PeersUp       int `json:"peers_up"`
	Shards        int `json:"shards"`
	CoveredShards int `json:"covered_shards"`
	Replication   int `json:"replication"`
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
	probes := make([]probe, len(c.all))
	var wg sync.WaitGroup
	for i, ps := range c.all {
		p := &probes[i]
		if p.ps = ps; ask != nil && !ask(ps) {
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

// freshest is the one rule a shard's card is picked by: among the probes
// that answered and whose peer admit accepts, each shard's card from the
// replica with the highest mutation sequence.
func freshest(probes []probe, admit func(*peerState) bool) map[int]segment.Stats {
	best := make(map[int]segment.Stats)
	for _, p := range probes {
		if !p.ok || !admit(p.ps) {
			continue
		}
		for _, st := range p.ns.Shards {
			if prev, seen := best[st.Shard]; !seen || st.MutSeq > prev.MutSeq {
				best[st.Shard] = st.Stats
			}
		}
	}
	return best
}

// sum adds up one card per shard in shard order.
func sum(cards map[int]segment.Stats) segment.Stats {
	var t segment.Stats
	for _, sh := range slices.Sorted(maps.Keys(cards)) {
		t.Add(sh, cards[sh])
	}
	return t
}

// Overview polls every readable peer once and returns the membership and
// the sum of each covered shard's freshest card (zero when none is).
func (c *Coordinator) Overview() (Membership, segment.Stats) {
	probes := c.probePeers((*peerState).readable)
	best := freshest(probes, (*peerState).readable)
	m := Membership{Peers: len(c.all), Shards: c.cfg.Shards, CoveredShards: len(best), Replication: c.cfg.Replication}
	for _, p := range probes {
		if p.ok {
			m.PeersUp++
		}
	}
	return m, sum(best)
}
