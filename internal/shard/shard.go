// Package shard runs the PIS pipeline over a horizontally partitioned
// graph database. The database is split into contiguous shards, each a
// mutable segment with its own fragment index over the database's one
// feature set, mined once by the caller, and configured by the caller's
// one segment.Config, as a cluster replica is; a query fans out to every
// shard and the per-shard results are stitched back together with global
// graph ids.
//
// Because PIS verification is exact, answers never depend on which
// features a shard's index holds (a store written before features were
// mined per database keeps each shard's own set): filtering quality may
// vary, answers do not. That is what makes the fan-out embarrassingly
// parallel and the merge a pure k-way interleave.
// The cost-based query planner works the same way: every shard plans its
// own fragment expansion against its own index's selectivity statistics
// (refreshed whenever that shard compacts), so a fragment may be
// expanded on one shard and skipped on another without affecting
// answers — the aggregated Stats sum each shard's planning counters.
//
// The database is mutable while serving. Inserts are routed to the shard
// with the fewest live graphs (keeping shards balanced as the database
// grows), where they land in that shard's delta segment; deletes
// tombstone the owning shard; Compact merges every shard's delta and
// tombstones into a new index per shard, in parallel. Graph ids are
// global, assigned once at insertion, and never reused, so they stay
// stable across compactions.
//
// kNN merges across shards with a shrinking radius: once k neighbors are
// in hand, no later shard is searched beyond the current k-th best
// distance, so later shards filter and verify at a tighter radius than
// the first.
package shard

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sync"

	"pis/internal/core"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
	"pis/internal/segment"
	"pis/internal/store"
)

// Range is one contiguous shard slice [Start, End) of the database.
type Range struct{ Start, End int }

// Split divides n graphs into k contiguous ranges whose sizes differ by at
// most one. k is clamped to [1, n]; every range is non-empty.
func Split(n, k int) []Range {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]Range, k)
	for i := 0; i < k; i++ {
		out[i] = Range{Start: i * n / k, End: (i + 1) * n / k}
	}
	return out
}

// DB is a sharded, mutable PIS database.
type DB struct {
	segs []*segment.Segment
	fan  []Searcher // segs as the fan-out interface

	mu     sync.Mutex // serializes id assignment + insert routing
	nextID int32
}

// eachShard runs f for shards 0..n-1 concurrently and returns the error
// of the lowest-numbered shard that failed, naming it.
func eachShard(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

func newDB(segs []*segment.Segment, nextID int32) *DB {
	d := &DB{segs: segs, fan: make([]Searcher, len(segs)), nextID: nextID}
	for i, seg := range segs {
		d.fan[i] = seg
	}
	return d
}

// New splits graphs into nShards contiguous shards and builds every
// shard's index under feats concurrently (one goroutine per shard, each
// running index.BuildParallel on GOMAXPROCS workers). Every shard is a
// segment configured by cfg; the shards share feats and only read it.
func New(graphs []*graph.Graph, nShards int, feats []mining.Feature, cfg segment.Config) (*DB, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("shard: empty database")
	}
	if nShards < 1 {
		return nil, fmt.Errorf("shard: nShards must be >= 1, got %d", nShards)
	}
	ranges := Split(len(graphs), nShards)
	segs := make([]*segment.Segment, len(ranges))
	err := eachShard(len(ranges), func(i int) (err error) {
		rg := ranges[i]
		segs[i], err = segment.New(graphs[rg.Start:rg.End], int32(rg.Start), feats, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return newDB(segs, int32(len(graphs))), nil
}

// Persist attaches backing stores at dir to an in-memory database,
// writing every shard's full current state (indexes included, no
// rebuild) as initial snapshots, in parallel.
//
// The root MANIFEST is written last, only after every shard store is
// fully established: a crash or error mid-Persist leaves no root
// manifest, so the directory still reads as "no store" and the next
// start rebuilds (leftover shard directories from such an aborted
// attempt are cleared here first) instead of wedging on a manifest that
// points at missing shards.
func (d *DB) Persist(dir string) error {
	if d.Durable() {
		return fmt.Errorf("shard: database is already durable")
	}
	if store.RootExists(dir) {
		return fmt.Errorf("shard: %s already holds a database store", dir)
	}
	err := eachShard(len(d.segs), func(i int) error {
		// No root manifest + an existing shard store = debris from a
		// crashed earlier Persist; clear it so Create succeeds.
		sd := store.ShardDir(dir, i)
		if store.Exists(sd) {
			if err := os.RemoveAll(sd); err != nil {
				return err
			}
		}
		return d.segs[i].Persist(sd)
	})
	if err == nil {
		err = store.WriteRootManifest(dir, len(d.segs))
	}
	if err != nil {
		// Roll every shard back to in-memory: a half-durable database
		// would fsync mutations into stores no root manifest will ever
		// name, and a Persist retry would be rejected.
		for _, seg := range d.segs {
			seg.AbandonStore()
		}
	}
	return err
}

// Open recovers a sharded database from its store directory: the root
// MANIFEST fixes the shard count, each shard recovers from its own
// snapshot + WAL in parallel, and the global id counter resumes past
// every id ever assigned, so recovered databases never reuse ids.
func Open(dir string, cfg segment.Config) (*DB, error) {
	nShards, err := store.ReadRootManifest(dir)
	if err != nil {
		return nil, err
	}
	segs := make([]*segment.Segment, nShards)
	err = eachShard(nShards, func(i int) (err error) {
		segs[i], err = segment.OpenDurable(store.ShardDir(dir, i), cfg)
		return err
	})
	if err != nil {
		for _, seg := range segs {
			if seg != nil {
				seg.Close()
			}
		}
		return nil, err
	}
	nextID := int32(0)
	for _, seg := range segs {
		if id := seg.MaxID() + 1; id > nextID {
			nextID = id
		}
	}
	return newDB(segs, nextID), nil
}

// Checkpoint writes every shard's current state as a fresh snapshot and
// truncates its WAL, in parallel. ErrNotDurable is returned for an
// in-memory database.
func (d *DB) Checkpoint() error {
	if !d.Durable() {
		return segment.ErrNotDurable
	}
	return eachShard(len(d.segs), func(i int) error { return d.segs[i].Checkpoint() })
}

// Durable reports whether the database has a backing store.
func (d *DB) Durable() bool { return d.segs[0].Durable() }

// StoreStats aggregates the per-shard durability counters; ok is false
// for an in-memory database. Recovery counters sum across shards; the
// snapshot sequence and last-checkpoint time report the oldest shard,
// the conservative answer to "how stale could recovery be".
func (d *DB) StoreStats() (agg store.Stats, ok bool) {
	for i, seg := range d.segs {
		s, sok := seg.StoreStats()
		if !sok {
			return store.Stats{}, false
		}
		agg.WALRecords += s.WALRecords
		agg.WALBytes += s.WALBytes
		agg.Checkpoints += s.Checkpoints
		agg.Recovery.ReplayedRecords += s.Recovery.ReplayedRecords
		agg.Recovery.DroppedBytes += s.Recovery.DroppedBytes
		if i == 0 || s.SnapshotSeq < agg.SnapshotSeq {
			agg.SnapshotSeq = s.SnapshotSeq
		}
		if i == 0 || s.LastCheckpoint.Before(agg.LastCheckpoint) {
			agg.LastCheckpoint = s.LastCheckpoint
		}
		if i == 0 || s.Recovery.SnapshotSeq < agg.Recovery.SnapshotSeq {
			agg.Recovery.SnapshotSeq = s.Recovery.SnapshotSeq
		}
		if s.Poisoned && !agg.Poisoned {
			// First poisoned shard names the database's degradation cause;
			// one read-only shard makes the whole database read-only for
			// inserts (routing cannot promise to avoid it).
			agg.Poisoned = true
			agg.PoisonReason = fmt.Sprintf("shard %d: %s", i, s.PoisonReason)
		}
	}
	return agg, true
}

// Close releases every shard's backing store.
func (d *DB) Close() error {
	var first error
	for _, seg := range d.segs {
		if err := seg.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NumShards returns the shard count.
func (d *DB) NumShards() int { return len(d.segs) }

// Len returns the number of live graphs.
func (d *DB) Len() int {
	n := 0
	for _, seg := range d.segs {
		n += seg.Live()
	}
	return n
}

// Graph returns the live graph with the given global id, or nil.
func (d *DB) Graph(id int32) *graph.Graph {
	for _, seg := range d.segs {
		if g := seg.Graph(id); g != nil {
			return g
		}
	}
	return nil
}

// Insert appends g to the shard with the fewest live graphs and returns
// its stable global id. On a durable database the insert is WAL-logged
// and fsync'd before it is acknowledged; a logging failure rejects the
// mutation (nothing searchable; the id reserved for it is consumed and
// never observable, so ids may skip) and returns the error with id -1.
// Otherwise a non-nil
// error reports a failed automatic compaction; the graph is inserted
// and searchable either way.
//
// d.mu covers only routing and id assignment: the target segment's
// insert slot is claimed (Reserve) before d.mu is released — so
// per-segment id order and append order agree even when inserts race —
// and the WAL append+fsync then runs outside d.mu, under the segment's
// own locks. Routing probes slots with TryReserve in ascending
// live-count order, so a shard tied up in an fsync or a compaction is
// simply skipped for the next-smallest one; d.mu blocks only when every
// shard has an insert in flight, in which case waiting on the smallest
// is the only option anyway.
func (d *DB) Insert(g *graph.Graph) (int32, error) {
	d.mu.Lock()
	var seg *segment.Segment
	// Probe shards smallest-first without sorting: scan for the minimum
	// among the not-yet-probed, up to len(d.segs) times.
	probed := make([]bool, len(d.segs))
	for range d.segs {
		best := -1
		for i, s := range d.segs {
			if probed[i] {
				continue
			}
			if best < 0 || s.Live() < d.segs[best].Live() {
				best = i
			}
		}
		if d.segs[best].TryReserve() {
			seg = d.segs[best]
			break
		}
		probed[best] = true
	}
	if seg == nil {
		// Every shard has an insert mid-flight; block on the smallest.
		best := 0
		for i := 1; i < len(d.segs); i++ {
			if d.segs[i].Live() < d.segs[best].Live() {
				best = i
			}
		}
		seg = d.segs[best]
		seg.Reserve()
	}
	id := d.nextID
	d.nextID++
	d.mu.Unlock()
	needsCompact, err := seg.CommitInsert(g, id)
	if err != nil {
		return -1, err
	}
	if needsCompact {
		// Compact outside d.mu: a merge on one shard must not stall inserts
		// routed to the others.
		return id, seg.Compact()
	}
	return id, nil
}

// Delete tombstones the graph with the given global id, reporting
// whether it was present and live. On a durable database a live delete
// is WAL-logged and fsync'd before it is acknowledged; on a logging
// failure the graph stays live and the error is returned.
func (d *DB) Delete(id int32) (bool, error) {
	for _, seg := range d.segs {
		ok, err := seg.Delete(id)
		if ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// Compact merges every shard's delta and tombstones into a new index per
// shard, in parallel. The first error is returned; failed shards keep
// serving their pre-compaction state.
func (d *DB) Compact() error {
	return eachShard(len(d.segs), func(i int) error { return d.segs[i].Compact() })
}

// LiveIDs returns the global ids of every live graph, ascending.
func (d *DB) LiveIDs() []int32 {
	var ids []int32
	for _, seg := range d.segs {
		ids = seg.AppendLiveIDs(ids)
	}
	slices.Sort(ids)
	return ids
}

// SearchCtx fans the query out to every shard concurrently and merges
// the per-shard results into one Result (FanOutSearch; one shard is
// called directly). Ids are global and stable; the answer set equals an
// unsharded search over the same live graphs. On cancellation the merged
// partial result (Stats.Partial set) is returned with the first error.
func (d *DB) SearchCtx(ctx context.Context, q *graph.Graph, sigma float64) (core.Result, error) {
	return FanOutSearch(ctx, d.fan, q, sigma)
}

// SearchKNNCtx returns the k nearest live graphs under the superimposed
// distance, closest first (ties by ascending global id), searching no
// farther than maxSigma (FanOutKNN). Cancellation is checked between the
// sequential per-shard searches and inside each one's verification pool;
// canceled calls return the fully verified neighbors found so far with
// the context error.
func (d *DB) SearchKNNCtx(ctx context.Context, q *graph.Graph, k int, maxSigma float64) ([]core.Neighbor, error) {
	return FanOutKNN(ctx, d.fan, q, k, maxSigma)
}

// SearchNaive verifies every live graph of every shard: the reference
// answer the differential tests compare the pipeline against. One shard's
// result is returned as it is, so the oracle of a one-shard database is
// the segment's, bit for bit.
func (d *DB) SearchNaive(q *graph.Graph, sigma float64) core.Result {
	if len(d.segs) == 1 {
		return d.segs[0].SearchNaive(q, sigma)
	}
	parts := make([]core.Result, len(d.segs))
	for i, seg := range d.segs {
		parts[i] = seg.SearchNaive(q, sigma)
	}
	return core.MergeGlobal(parts)
}

// Stats sums the per-shard base index counters and the heap the indexes
// hold, except Classes: the shards share one feature set, so Classes is
// the largest shard's count, not a sum.
func (d *DB) Stats() (total index.Stats, memory index.Memory) {
	for _, seg := range d.segs {
		s, m := seg.IndexStats()
		total.Classes = max(total.Classes, s.Classes)
		total.Fragments += s.Fragments
		total.Sequences += s.Sequences
		memory.StoreBytes += m.StoreBytes
		memory.BitmapBytes += m.BitmapBytes
		memory.FingerprintBytes += m.FingerprintBytes
	}
	return total, memory
}

// LearnedSurvival returns each shard's learned planner state, indexed by
// shard.
func (d *DB) LearnedSurvival() [][]core.SurvivalCell {
	out := make([][]core.SurvivalCell, len(d.segs))
	for i, seg := range d.segs {
		out[i] = seg.LearnedSurvival()
	}
	return out
}

// Overlay reports the mutation overlay size summed across shards: delta
// graphs awaiting indexing and tombstoned graphs awaiting compaction.
func (d *DB) Overlay() (delta, tombstones int) {
	for _, seg := range d.segs {
		delta += seg.DeltaLen()
		tombstones += seg.Tombstoned()
	}
	return delta, tombstones
}
