// The coordinator: the client-side brain of the cluster. It owns the
// placement map, fans queries out across shards through the same
// FanOutSearch/FanOutKNN engine the single-process database uses (each
// shard's Searcher is a remoteShard that picks replicas), and layers
// two latency defenses over every shard query:
//
//   - failover: a replica that errors is retried on the next replica
//     immediately, and marked unreachable so later queries skip it;
//   - hedging: a replica that is merely slow gets a second copy of the
//     query sent to another replica after a p95-derived delay — first
//     answer wins, the loser is canceled by closing its connection.
//
// Verification is exact and replicas of a shard hold identical
// contents, so whichever replica answers, the merged result is the
// single-process result — the property the differential tests pin.
//
// Mutations are serialized under one lock and broadcast to every
// (non-stale) replica of the target shard; a replica that misses one is
// marked stale and excluded from reads until it restarts, catches up,
// and proves its sequence numbers match (the readmission check runs
// under the same mutation lock, so equality there means equality,
// period). Losing every replica of a shard surfaces as ErrUnavailable,
// which the HTTP layer maps to 503.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pis/internal/binio"
	"pis/internal/graph"
	"pis/internal/shard"
)

// ErrUnavailable reports that every replica of some shard is
// unreachable or stale: the cluster cannot answer correctly, so it
// refuses to answer at all (HTTP 503), never silently serving a subset.
var ErrUnavailable = errors.New("cluster: no live replica for shard")

// Config describes the cluster from one coordinator's point of view.
type Config struct {
	// Peers is every node's RPC address. Order does not matter; all
	// coordinators derive the same placement from the same set.
	Peers []string
	// Shards is the global shard count.
	Shards int
	// Replication is the replica count per shard, clamped to len(Peers).
	Replication int
	// PingInterval paces the health loop (default 1s; < 0 disables it,
	// for tests that drive CheckPeers by hand).
	PingInterval time.Duration
}

// The hedge delay is hedgeDefault until the search-RPC histogram holds
// enough observations for a p95, then hedgeMultiplier times that p95
// clamped to [hedgeFloor, hedgeCap]. statsTimeout bounds every opStats
// call: the health sweep, an overview, readmission and catch-up.
const (
	hedgeDefault    = 25 * time.Millisecond
	hedgeFloor      = 2 * time.Millisecond
	hedgeCap        = time.Second
	hedgeMultiplier = 2
	statsTimeout    = 2 * time.Second
)

func (cfg Config) withDefaults() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = len(cfg.Peers)
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	if cfg.PingInterval == 0 {
		cfg.PingInterval = time.Second
	}
	return cfg
}

// peerState is the coordinator's live opinion of one node.
type peerState struct {
	*peer
	// up: the last contact (ping or RPC) succeeded. Cleared on transport
	// failures; a down peer is tried last, not never.
	up atomic.Bool
	// stale: the peer missed an acknowledged mutation. A stale peer
	// serves no reads and receives no writes until readmitted.
	stale atomic.Bool
	// epoch is the peer's last observed process incarnation; 0 = never
	// contacted. staleAtEpoch remembers the incarnation that went stale —
	// only a *new* incarnation (which ran catch-up at boot) can rejoin.
	epoch        atomic.Int64
	staleAtEpoch atomic.Int64
}

func (ps *peerState) readable() bool { return !ps.stale.Load() }

// markStale excludes the peer until a restarted incarnation passes the
// readmission check.
func (ps *peerState) markStale() {
	ps.staleAtEpoch.Store(ps.epoch.Load())
	ps.stale.Store(true)
	ps.up.Store(false)
}

// Coordinator routes queries and mutations to a cluster of nodes.
type Coordinator struct {
	cfg       Config
	placement [][]string
	peers     map[string]*peerState
	all       []*peerState // every peer, in cfg.Peers order
	searchers []shard.Searcher

	// mutMu serializes every mutation cluster-wide, pinning a single
	// apply order so all replicas of a shard see the same stream — the
	// invariant sequence-number catch-up depends on. Readmission also
	// runs under it: sequence equality checked while mutations are frozen
	// is real equality.
	mutMu    sync.Mutex
	nextID   atomic.Int32
	insertRR atomic.Uint64

	cachedLen atomic.Int64

	stop    chan struct{}
	wg      sync.WaitGroup
	closeMu sync.Mutex
	closed  bool
}

// Connect builds a coordinator over the peers and runs the first health
// sweep (CheckPeers), which seeds the id counter. Unreachable peers are
// tolerated (they may still be booting — the health loop admits them
// when they appear); Connect fails only if no peer at all is reachable,
// since the id counter needs at least one node's view of the database.
func Connect(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers")
	}
	c := &Coordinator{
		cfg:       cfg,
		placement: Place(cfg.Shards, cfg.Peers, cfg.Replication),
		peers:     make(map[string]*peerState, len(cfg.Peers)),
		stop:      make(chan struct{}),
	}
	for _, addr := range cfg.Peers {
		c.peers[addr] = &peerState{peer: newPeer(addr)}
		c.all = append(c.all, c.peers[addr])
	}
	for s := 0; s < cfg.Shards; s++ {
		reps := make([]*peerState, len(c.placement[s]))
		for i, addr := range c.placement[s] {
			reps[i] = c.peers[addr]
		}
		c.searchers = append(c.searchers, &remoteShard{co: c, idx: s, replicas: reps})
	}
	if c.CheckPeers() == 0 {
		return nil, fmt.Errorf("cluster: no peer reachable (tried %d)", len(c.all))
	}
	if cfg.PingInterval > 0 {
		c.wg.Add(1)
		go c.healthLoop()
	}
	return c, nil
}

// Close stops the health loop and drops pooled connections.
func (c *Coordinator) Close() {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	close(c.stop)
	c.wg.Wait()
	for _, ps := range c.peers {
		ps.closeIdle()
	}
}

// NumShards returns the global shard count.
func (c *Coordinator) NumShards() int { return len(c.searchers) }

// Searchers returns one searcher per global shard, each served by
// whichever replica answers first: what shard.FanOutSearch and
// shard.FanOutKNN merge exactly like the single-process database.
func (c *Coordinator) Searchers() []shard.Searcher { return c.searchers }

// Insert assigns the next global id, routes the graph to a shard
// (round-robin), and broadcasts it to the shard's replicas. At least
// one replica must acknowledge; replicas that fail are marked stale.
func (c *Coordinator) Insert(ctx context.Context, g *graph.Graph) (int32, error) {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	id := c.nextID.Load()
	sh := int(c.insertRR.Add(1)-1) % len(c.searchers)
	req := apUv(nil, uint64(sh))
	req = apU32(req, uint32(id))
	req = apGraph(req, g)
	if err := mutate(ctx, c.searchers[sh].(*remoteShard).replicas, opInsert, req, nil); err != nil {
		return 0, fmt.Errorf("cluster: insert to shard %d: %w", sh, err)
	}
	c.nextID.Store(id + 1)
	c.cachedLen.Add(1)
	return id, nil
}

// Delete broadcasts the tombstone to every non-stale peer (the owning
// shard's replicas apply it; everyone else reports not-found). Found on
// any peer means found.
func (c *Coordinator) Delete(ctx context.Context, id int32) (bool, error) {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	req := apU32(nil, uint32(id))
	found := false
	err := mutate(ctx, upFirst(c.all), opDelete, req, func(sr *binio.SectionReader) error {
		f := sr.U8() != 0
		found = found || f
		return sr.Err()
	})
	if err != nil {
		return false, fmt.Errorf("cluster: delete %d: %w", id, err)
	}
	if found {
		c.cachedLen.Add(-1)
	}
	return found, nil
}

// mutate sends one mutation to every peer of peers not marked stale,
// reading each answer with dec, and marks stale each peer that fails. It
// fails, with the first failure or ErrUnavailable, only when no peer
// acknowledged.
func mutate(ctx context.Context, peers []*peerState, op byte, req []byte, dec func(*binio.SectionReader) error) error {
	acks := 0
	var firstErr error
	for _, ps := range peers {
		if ps.stale.Load() {
			continue
		}
		if err := ps.call(ctx, op, req, dec); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			ps.markStale()
			continue
		}
		acks++
	}
	if acks > 0 {
		return nil
	}
	if firstErr == nil {
		firstErr = ErrUnavailable
	}
	return firstErr
}

// Graph fetches one graph by global id from whichever readable peer
// has it; nil when no live peer holds the id.
func (c *Coordinator) Graph(ctx context.Context, id int32) (*graph.Graph, error) {
	req := apU32(nil, uint32(id))
	var firstErr error
	tried := 0
	for _, ps := range upFirst(c.all) {
		var g *graph.Graph
		err := ps.call(ctx, opGraph, req, func(sr *binio.SectionReader) error {
			if sr.U8() == 0 {
				return sr.Err()
			}
			var derr error
			g, derr = readGraph(sr)
			return derr
		})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		tried++
		if g != nil {
			return g, nil
		}
	}
	if tried == 0 && firstErr != nil {
		return nil, firstErr
	}
	return nil, nil
}

// Len returns the cluster's live graph count, maintained by the health
// loop and mutation acks (cheap, read often by the HTTP layer).
func (c *Coordinator) Len() int { return int(c.cachedLen.Load()) }

// Compact asks every readable peer to fold its shards' deltas.
func (c *Coordinator) Compact(ctx context.Context) error { return c.broadcast(ctx, opCompact) }

// Checkpoint asks every readable peer to snapshot its shards.
func (c *Coordinator) Checkpoint(ctx context.Context) error { return c.broadcast(ctx, opCheckpoint) }

func (c *Coordinator) broadcast(ctx context.Context, op byte) error {
	reached := 0
	var errs []error
	for _, ps := range c.all {
		if ps.stale.Load() {
			continue
		}
		if err := ps.call(ctx, op, nil, nil); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", ps.addr, err))
			continue
		}
		reached++
	}
	if reached == 0 {
		errs = append(errs, ErrUnavailable)
	}
	return errors.Join(errs...)
}

// upFirst ranks peers for one read: the up ones first, then the down
// ones as a last resort (our view may be old; a dead one fails the dial
// fast), each in the order given. Stale peers never serve, so a down
// shard replica gets reads again once the health loop marks it up.
func upFirst(peers []*peerState) []*peerState {
	var up, down []*peerState
	for _, ps := range peers {
		if !ps.readable() {
			continue
		}
		if ps.up.Load() {
			up = append(up, ps)
		} else {
			down = append(down, ps)
		}
	}
	return append(up, down...)
}

// hedgeDelay derives the hedge trigger from the live search-RPC p95.
func (c *Coordinator) hedgeDelay() time.Duration {
	snap := mSearchRPCSeconds.Snapshot()
	if snap.Count() < 20 {
		return hedgeDefault
	}
	d := time.Duration(snap.Quantile(0.95) * hedgeMultiplier * float64(time.Second))
	return min(max(d, hedgeFloor), hedgeCap)
}

func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.CheckPeers()
		}
	}
}

// CheckPeers probes every peer once, refreshing reachability, replica
// lag, the cached length, the id counter and stale-peer readmission, and
// returns how many readable peers are up. Connect runs the first sweep, the
// health loop the rest; tests call it directly.
func (c *Coordinator) CheckPeers() int {
	probes := c.probePeers(nil)
	for _, p := range probes {
		ps := p.ps
		if !p.ok {
			ps.up.Store(false)
			continue
		}
		ps.epoch.Store(p.ns.Epoch)
		if !ps.stale.Load() {
			ps.up.Store(true)
		} else if p.ns.Epoch != ps.staleAtEpoch.Load() {
			c.tryReadmit(ps)
		}
	}

	// Lag and the cached length read each shard's freshest readable card.
	best := freshest(probes, (*peerState).readable)
	upCount := 0
	maxID := int32(-1)
	for _, p := range probes {
		if !p.ok {
			mReplicaLag.With(p.ps.addr).Set(-1)
			continue
		}
		var lag uint64
		for _, st := range p.ns.Shards {
			if m := best[st.Shard].MutSeq; m > st.MutSeq {
				lag = max(lag, m-st.MutSeq)
			}
			maxID = max(maxID, st.MaxID)
		}
		mReplicaLag.With(p.ps.addr).Set(float64(lag))
		if p.ps.readable() && p.ps.up.Load() {
			upCount++
		}
	}
	mPeersUp.Set(float64(upCount))
	if len(best) == c.cfg.Shards {
		c.cachedLen.Store(int64(sum(best).Live))
	}

	// Re-seed the id counter from the largest id any peer has assigned:
	// an earlier sweep may have run while some peers were still booting,
	// under-counting the id space. Only ever raises.
	if maxID >= 0 {
		c.mutMu.Lock()
		if next := maxID + 1; next > c.nextID.Load() {
			c.nextID.Store(next)
		}
		c.mutMu.Unlock()
	}
	return upCount
}

// tryReadmit rejoins a restarted stale peer iff, with mutations frozen,
// every shard it hosts matches the sequence number of the freshest other
// readable replica; a shard no other replica answers for passes, since
// the candidate is the best copy there is. Equality under the mutation
// lock is exact equality: nothing can be applied while the check runs,
// and once readmitted the peer receives every subsequent mutation.
func (c *Coordinator) tryReadmit(cand *peerState) {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	// Ask only the candidate and the other replicas of the shards it
	// hosts, so a peer that shares none of them, answering or not, holds
	// no mutation up.
	replicas := make(map[*peerState]bool)
	for _, s := range Owned(c.placement, cand.addr) {
		for _, addr := range c.placement[s] {
			replicas[c.peers[addr]] = true
		}
	}
	probes := c.probePeers(func(ps *peerState) bool { return ps == cand || replicas[ps] && ps.readable() })
	i := slices.IndexFunc(probes, func(p probe) bool { return p.ps == cand })
	if !probes[i].ok {
		return
	}
	ref := freshest(probes, func(ps *peerState) bool { return ps != cand })
	for _, st := range probes[i].ns.Shards {
		if r, ok := ref[st.Shard]; ok && st.MutSeq != r.MutSeq {
			return // still catching up; try again next sweep
		}
	}
	cand.stale.Store(false)
	cand.up.Store(true)
}
