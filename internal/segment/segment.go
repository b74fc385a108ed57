// Package segment implements the mutable unit of a live PIS database: an
// immutable indexed base plus an append-only delta of newly inserted
// graphs and a copy-on-write tombstone set of deleted ones.
//
// The design keeps the paper's pruning guarantees intact per segment. The
// base is exactly a classic PIS index — the database's features, per-class
// range structures, partition pruning — over a frozen graph slice; the
// features are mined once per database by the owner and handed to New,
// never mined here. The delta is unindexed and searched by direct
// verification (the naive path), which is cheap while the delta stays a
// bounded fraction of the base; deletes only ever hide ids from read
// paths. Compact folds delta and tombstones into a new base, automatically
// once the delta outgrows Config.CompactFraction of the base. It merges
// rather than rebuilds (index.Rebase): the outgoing index's class entries
// carry over under their new ids, only the delta's graphs are walked, and
// the features are the ones the outgoing index carries. The merged index
// is, bit for bit, the one a build over the survivors with the same
// features gives.
//
// Query planning is delta-aware by construction: the cost-based planner
// of the segment's one core.Searcher, which threshold and kNN reads
// share, budgets its σ range queries against the indexed base only —
// delta graphs bypass the filter and are verified regardless, so their
// count never inflates a fragment's estimated gain — and the
// per-fragment selectivity statistics the planner consumes
// are recomputed with every compaction: a merge seals the index the way a
// build does, and sealing collects them.
//
// Every graph carries a stable global id assigned at insertion by the
// owner (a pis.Database, or a cluster's coordinator) and never reused:
// searches translate segment-local ids to global ids on the way out, so
// clients can hold on to ids across compactions. Reads take a consistent snapshot (searcher,
// delta, tombstones) under a short lock and then run lock-free, giving
// per-request snapshot semantics under concurrent mutation.
//
// A segment is optionally durable: Persist and OpenDurable attach a
// store.Store, after which every Insert and Delete is written to the
// store's WAL and fsync'd before it is applied or acknowledged, Compact
// and Checkpoint write atomic snapshots, and OpenDurable rebuilds the
// exact pre-crash live state from the newest snapshot plus the valid WAL
// prefix. A non-durable segment (New) lives in memory only.
package segment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"pis/internal/core"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
	"pis/internal/obs"
	"pis/internal/store"
)

// ErrNotDurable reports a durability operation on a segment that has no
// backing store.
var ErrNotDurable = errors.New("segment: no backing store (database was not opened from a data directory)")

// Config carries everything a segment needs to (re)build its index.
type Config struct {
	// Index configures the per-class index (kind + metric).
	Index index.Options
	// Core tunes the segment's searcher, which every read shares.
	Core core.Options
	// CompactFraction triggers automatic compaction when
	// len(delta) > CompactFraction * len(base). <= 0 disables the trigger;
	// Compact can still be called explicitly.
	CompactFraction float64
	// FS routes the backing store's disk operations; nil means the real
	// filesystem. Fault-injection tests swap in internal/faultfs here.
	FS store.FS
}

// Segment is one mutable database slice. All methods are safe for
// concurrent use.
type Segment struct {
	cfg Config

	mu sync.RWMutex
	// base is the indexed graph slice; ids[i] is base[i]'s global id,
	// strictly ascending. Both are replaced wholesale on compaction,
	// never mutated in place.
	base []*graph.Graph
	ids  []int32
	idx  *index.Index
	srch *core.Searcher
	// delta holds inserted, not-yet-indexed graphs; deltaIDs aligns,
	// strictly ascending and greater than every id in ids (global ids are
	// assigned monotonically). Both are append-only between compactions.
	delta    []*graph.Graph
	deltaIDs []int32
	// tombs marks deleted local ids (base positions, then len(base)+delta
	// positions); copy-on-write so snapshots stay consistent.
	tombs *index.Tombstones
	// maxID is the largest global id ever assigned through this segment;
	// persisted at checkpoints so ids are never reused after a restart,
	// even when their graphs were deleted and compacted away.
	maxID int32
	// mutSeq counts acknowledged mutations (inserts + live deletes) ever
	// applied to this segment, surviving checkpoints and restarts via the
	// snapshot header. Replicas of one shard apply the same mutation
	// stream in the same order, so equal mutSeqs mean equal contents —
	// the comparison replica catch-up is built on.
	mutSeq uint64
	// nlive mirrors base+delta-tombstones so Live() never contends with
	// mu — insert routing must stay cheap even while another insert is
	// inside a WAL fsync under the write lock. Compaction never changes
	// liveness, so only Insert and Delete touch it.
	nlive atomic.Int32
	// insMu serializes inserts into this segment, separately from mu, so
	// a multi-segment owner can (a) hold it across its routing lock to
	// pin id order to append order and (b) probe it with TryReserve to
	// route around a segment busy with a WAL fsync or compaction. Lock
	// order: insMu before mu; nothing acquires insMu while holding mu.
	insMu sync.Mutex
	// st is the durable backing store; nil for an in-memory segment.
	st *store.Store
	// memo remembers what reads answered (memo.go).
	memo memo
}

// New indexes graphs under feats and returns a segment whose global ids
// are startID, startID+1, .... The segment only reads feats, so the
// shards of one database may share the slice.
func New(graphs []*graph.Graph, startID int32, feats []mining.Feature, cfg Config) (*Segment, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("segment: empty graph slice")
	}
	idx, err := index.BuildParallel(graphs, feats, cfg.Index, 0)
	if err != nil {
		return nil, fmt.Errorf("building index: %w", err)
	}
	return fromIndex(graphs, sequentialIDs(startID, len(graphs)), idx, cfg), nil
}

// Persist attaches a new backing store at dir to an in-memory segment,
// writing its full current state (index included, no rebuild) as the
// initial snapshot. Afterwards the segment is durable: mutations are
// WAL-logged and OpenDurable recovers it.
func (s *Segment) Persist(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st != nil {
		return fmt.Errorf("segment: already durable (store at %s)", s.st.Dir())
	}
	st, err := store.CreateFS(dir, s.cfg.FS)
	if err != nil {
		return err
	}
	if err := st.WriteSnapshot(s.snapshotStateLocked()); err != nil {
		return err
	}
	s.st = st
	return nil
}

// AbandonStore detaches the backing store and deletes its directory,
// returning the segment to in-memory operation. A multi-segment Persist
// uses it to roll back the shards that succeeded when a sibling failed,
// so the database is never left half-durable (some shards fsync'ing
// into stores that no root manifest will ever point at).
func (s *Segment) AbandonStore() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st == nil {
		return
	}
	dir := s.st.Dir()
	s.st.Close()
	s.st = nil
	os.RemoveAll(dir)
}

// OpenDurable recovers a segment from its store directory: the newest
// valid snapshot is loaded (index fingerprint verified against the
// recovered graphs) and the WAL's valid prefix is replayed — inserts
// land in the delta, deletes become tombstones — reproducing the exact
// acknowledged pre-crash state. A torn WAL tail is dropped and reported
// in Stats().Store.Recovery.
func OpenDurable(dir string, cfg Config) (*Segment, error) {
	st, snap, recs, err := store.OpenFS(dir, cfg.Index.Metric, cfg.FS)
	if err != nil {
		return nil, err
	}
	if snap.Index.DBSize() != len(snap.Base) {
		st.Close()
		return nil, fmt.Errorf("segment: snapshot index covers %d graphs, snapshot has %d", snap.Index.DBSize(), len(snap.Base))
	}
	if fp := graph.Fingerprint(snap.Base); snap.Index.Fingerprint() != fp {
		st.Close()
		return nil, fmt.Errorf("segment: snapshot index fingerprint %016x does not match its graphs (%016x)", snap.Index.Fingerprint(), fp)
	}
	s := fromIndex(snap.Base, snap.BaseIDs, snap.Index, cfg)
	s.delta = snap.Delta
	s.deltaIDs = snap.DeltaIDs
	s.maxID = max(s.maxID, snap.NextID-1)
	for _, id := range snap.DeltaIDs {
		s.maxID = max(s.maxID, id)
	}
	for _, gid := range snap.Tombs {
		if local, ok := localOf(s.ids, s.deltaIDs, gid); ok {
			s.tombs = s.tombs.WithSet(local)
		}
	}
	for _, rec := range recs {
		switch rec.Op {
		case store.OpInsert:
			s.delta = append(s.delta, rec.Graph)
			s.deltaIDs = append(s.deltaIDs, rec.ID)
			s.maxID = max(s.maxID, rec.ID)
		case store.OpDelete:
			if local, ok := localOf(s.ids, s.deltaIDs, rec.ID); ok {
				s.tombs = s.tombs.WithSet(local)
			}
		}
	}
	s.nlive.Store(int32(len(s.base) + len(s.delta) - s.tombs.Count()))
	s.mutSeq = snap.MutSeq + uint64(len(recs))
	s.st = st
	return s, nil
}

func sequentialIDs(start int32, n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = start + int32(i)
	}
	return ids
}

func fromIndex(base []*graph.Graph, ids []int32, idx *index.Index, cfg Config) *Segment {
	maxID := int32(-1)
	if len(ids) > 0 {
		maxID = ids[len(ids)-1] // ids are ascending
	}
	s := &Segment{
		cfg:   cfg,
		base:  base,
		ids:   ids,
		idx:   idx,
		srch:  core.NewSearcher(base, idx, cfg.Core),
		maxID: maxID,
	}
	s.nlive.Store(int32(len(base)))
	return s
}

// snapshot is one consistent read view: taken under RLock, used lock-free.
type snapshot struct {
	srch     *core.Searcher
	ids      []int32
	deltaIDs []int32
	maxID    int32
	view     core.View
	memo     *memo
	budget   int64 // the memo's byte bound for a segment of this size
}

func (s *Segment) snapshot() snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return snapshot{
		srch:     s.srch,
		ids:      s.ids,
		deltaIDs: s.deltaIDs,
		maxID:    s.maxID,
		view:     core.View{Tombs: s.tombs, Delta: s.delta},
		memo:     &s.memo,
		budget:   max(memoFloorBytes, memoBytesPerGraph*int64(len(s.ids)+len(s.deltaIDs))),
	}
}

// global translates a segment-local id to the stable global id.
func (sn *snapshot) global(local int32) int32 {
	if n := len(sn.ids); int(local) >= n {
		return sn.deltaIDs[int(local)-n]
	}
	return sn.ids[local]
}

// remap rewrites a result's local ids to global ids in place. Both ids
// and deltaIDs are ascending and every delta id exceeds every base id,
// so ascending local order maps to ascending global order.
func (sn *snapshot) remap(r *core.Result) {
	for i, id := range r.Answers {
		r.Answers[i] = sn.global(id)
	}
	for i, id := range r.Candidates {
		r.Candidates[i] = sn.global(id)
	}
}

// SearchCtx answers the SSSD query over the segment's current live
// graphs; result ids are global. Like every read that verifies, it goes
// through the result memo (memo.go): a repeated query pays only for the
// graphs inserted since it was last answered. A canceled or timed-out
// query returns the context error together with a partial result (see
// core.Searcher.SearchViewCtx); a verification panic surfaces as a
// *core.PanicError. The partial result's ids are remapped to global ids
// like any other, so callers can use it directly.
//
// When ctx carries an obs.Trace the span tree of the search — plan,
// filter and verify children with the funnel counters as attributes — is
// stored in it. The tree is assembled from the Stats the pipeline
// collects anyway, so tracing costs the tree allocation and nothing else.
func (s *Segment) SearchCtx(ctx context.Context, q *graph.Graph, sigma float64) (core.Result, error) {
	start := time.Now()
	sn := s.snapshot()
	r, err := sn.search(ctx, q, sigma)
	if tr := obs.TraceFrom(ctx); tr != nil {
		sp := r.Trace(time.Since(start))
		sp.SetAttr("delta_graphs", len(sn.view.Delta))
		if sn.view.Tombs != nil {
			sp.SetAttr("tombstoned_graphs", sn.view.Tombs.Count())
		}
		tr.SetRoot(sp)
	}
	return r, err
}

// SearchNaive verifies every live graph (the reference answer).
func (s *Segment) SearchNaive(q *graph.Graph, sigma float64) core.Result {
	sn := s.snapshot()
	r := sn.srch.SearchNaiveView(q, sigma, sn.view)
	sn.remap(&r)
	return r
}

// SearchKNNCtx returns up to k nearest live graphs with global ids,
// closest first (ties by ascending global id), searching no farther than
// maxSigma: one pass of the threshold pipeline at maxSigma whose
// verification budget shrinks to the k-th distance, through the memo. On
// cancellation the neighbors verified so far are returned with the
// context error.
func (s *Segment) SearchKNNCtx(ctx context.Context, q *graph.Graph, k int, maxSigma float64) ([]core.Neighbor, error) {
	sn := s.snapshot()
	return sn.searchKNN(ctx, q, k, maxSigma)
}

// Insert appends g to the delta under the caller-assigned global id,
// which must exceed every id previously given to this segment. On a
// durable segment the insert is WAL-logged and fsync'd first; a logging
// error rejects the mutation entirely (memory and disk stay in
// agreement) and is returned. Insert reports whether the delta has
// outgrown CompactFraction of the base, in which case the caller should
// run Compact — outside whatever lock serialized its id assignment, so a
// rebuild never stalls inserts to other segments.
func (s *Segment) Insert(g *graph.Graph, id int32) (needsCompact bool, err error) {
	s.Reserve()
	return s.CommitInsert(g, id)
}

// Reserve locks the segment's insert slot, so a multi-segment owner can
// fix the insert's global id under its own routing lock, release that
// lock, and then run the (fsync-bearing) CommitInsert without stalling
// inserts routed to other segments. Every Reserve must be followed by
// exactly one CommitInsert.
func (s *Segment) Reserve() { s.insMu.Lock() }

// TryReserve is Reserve if the insert slot is immediately free. A false
// return means another insert is mid-commit here — possibly waiting out
// a compaction — and the caller should route elsewhere.
func (s *Segment) TryReserve() bool { return s.insMu.TryLock() }

// CommitInsert completes an insert begun with Reserve; see Insert for
// the semantics.
func (s *Segment) CommitInsert(g *graph.Graph, id int32) (needsCompact bool, err error) {
	defer s.insMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st != nil {
		if err := s.st.AppendInsert(id, g); err != nil {
			return false, err
		}
	}
	s.delta = append(s.delta, g)
	s.deltaIDs = append(s.deltaIDs, id)
	if id > s.maxID {
		s.maxID = id
	}
	s.mutSeq++
	s.nlive.Add(1)
	mInserts.Inc()
	f := s.cfg.CompactFraction
	return f > 0 && float64(len(s.delta)) > f*float64(len(s.base)), nil
}

// Delete tombstones the graph with the given global id, reporting
// whether the id was present and live. On a durable segment a live
// delete is WAL-logged and fsync'd before it is applied; a logging error
// leaves the graph live and is returned.
func (s *Segment) Delete(id int32) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	local, ok := localOf(s.ids, s.deltaIDs, id)
	if !ok || s.tombs.Has(local) {
		return false, nil
	}
	if s.st != nil {
		if err := s.st.AppendDelete(id); err != nil {
			return false, err
		}
	}
	s.tombs = s.tombs.WithSet(local)
	s.mutSeq++
	s.nlive.Add(-1)
	mDeletes.Inc()
	return true, nil
}

// localOf resolves a global id to the segment-local id, by binary search
// over the two ascending id slices.
func localOf(ids, deltaIDs []int32, id int32) (int32, bool) {
	if i, ok := slices.BinarySearch(ids, id); ok {
		return int32(i), true
	}
	i, ok := slices.BinarySearch(deltaIDs, id)
	return int32(len(ids) + i), ok
}

// Compact folds the delta and tombstones into a new index over the
// surviving graphs, merged forward from the current one under the features
// it carries (see the package comment). The new index carries fresh
// per-fragment selectivity statistics, so the query planner's estimates
// track the post-compaction contents. On error the segment is unchanged
// and still serves correctly. Compacting an unmutated segment is a no-op.
//
// On a durable segment a successful compaction also writes a fresh
// snapshot and truncates the WAL. If the snapshot write fails the error
// is returned but the segment stays fully consistent: the in-memory
// compaction stands, and the previous on-disk snapshot+WAL pair replays
// to the same live graph set (compaction never changes contents, only
// representation), so a crash before the next checkpoint loses nothing.
func (s *Segment) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mutated := len(s.delta) > 0 || s.tombs.Count() > 0
	compactStart := time.Now()
	if err := s.compactLocked(); err != nil {
		mCompactErrors.Inc()
		return err
	}
	if mutated {
		mCompactions.Inc()
		mCompactSeconds.ObserveSince(compactStart)
		mCompactedGraphs.Add(int64(len(s.base) - s.tombs.Count()))
	}
	if s.st != nil && mutated {
		if err := s.st.WriteSnapshot(s.snapshotStateLocked()); err != nil {
			return fmt.Errorf("segment: compacted in memory but snapshot failed (previous on-disk state still recovers correctly): %w", err)
		}
	}
	return nil
}

// Checkpoint writes the current state — base index, delta, tombstones —
// as a fresh atomic snapshot and truncates the WAL, without rebuilding
// the index. Restart cost drops to a load + empty replay; answers are
// unchanged.
func (s *Segment) Checkpoint() error {
	if s.st == nil {
		return ErrNotDurable
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.WriteSnapshot(s.snapshotStateLocked())
}

// MutSeq returns the segment's mutation sequence number: the count of
// acknowledged mutations ever applied, durable across restarts. Replica
// catch-up compares two replicas' MutSeqs to pick WAL shipping (the gap
// is still in the healthy peer's active WAL) over a full snapshot
// transfer.
func (s *Segment) MutSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mutSeq
}

// WALRecordsAfter returns the durable mutations with sequence numbers
// greater than after, in order, when they are all still present in the
// active WAL; ok is false when the gap reaches back past the last
// checkpoint (or the segment is not durable) and the replica must fall
// back to a full snapshot transfer.
func (s *Segment) WALRecordsAfter(after uint64) (recs []store.Record, ok bool, err error) {
	if s.st == nil {
		return nil, false, nil
	}
	// The read lock is held across the scan: mutations and checkpoints
	// both take the write lock, so mutSeq and the WAL contents cannot
	// shift under us and the arithmetic below is exact.
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur := s.mutSeq
	if after > cur {
		return nil, false, fmt.Errorf("segment: replica claims sequence %d ahead of ours (%d)", after, cur)
	}
	all, err := s.st.WALRecords()
	if err != nil {
		return nil, false, err
	}
	// The WAL holds exactly the last len(all) mutations, i.e. sequences
	// cur-len(all)+1 .. cur.
	base := cur - uint64(len(all))
	if after < base {
		return nil, false, nil // gap predates the active WAL: full transfer
	}
	return all[after-base:], true, nil
}

// TransferState returns the backing store's transferable file set (see
// store.TransferState) and the directory to read the files from. It
// fails on an in-memory segment.
func (s *Segment) TransferState() (ts *store.TransferState, dir string, err error) {
	if s.st == nil {
		return nil, "", ErrNotDurable
	}
	ts, err = s.st.TransferState()
	if err != nil {
		return nil, "", err
	}
	return ts, s.st.Dir(), nil
}

// Close releases the backing store (no-op for in-memory segments). The
// segment keeps answering reads after Close; a durable segment's
// mutations fail, since its store is closed.
func (s *Segment) Close() error {
	s.memo.clear()
	if s.st == nil {
		return nil
	}
	return s.st.Close()
}

// snapshotStateLocked captures the full durable state; callers hold mu.
func (s *Segment) snapshotStateLocked() *store.Snapshot {
	snap := &store.Snapshot{
		NextID:   s.maxID + 1,
		Base:     s.base,
		BaseIDs:  s.ids,
		Index:    s.idx,
		Delta:    s.delta,
		DeltaIDs: s.deltaIDs,
		MutSeq:   s.mutSeq,
	}
	for i, id := range s.ids {
		if s.tombs.Has(int32(i)) {
			snap.Tombs = append(snap.Tombs, id)
		}
	}
	for i, id := range s.deltaIDs {
		if s.tombs.Has(int32(len(s.base) + i)) {
			snap.Tombs = append(snap.Tombs, id)
		}
	}
	return snap
}

func (s *Segment) compactLocked() error {
	if len(s.delta) == 0 && s.tombs.Count() == 0 {
		return nil
	}
	survivors := make([]*graph.Graph, 0, len(s.base)+len(s.delta)-s.tombs.Count())
	ids := make([]int32, 0, cap(survivors))
	remap := make([]int32, len(s.base)) // base position → survivor position
	for i, g := range s.base {
		remap[i] = -1
		if !s.tombs.Has(int32(i)) {
			remap[i] = int32(len(survivors))
			survivors = append(survivors, g)
			ids = append(ids, s.ids[i])
		}
	}
	carried := len(survivors)
	for i, g := range s.delta {
		if !s.tombs.Has(int32(len(s.base) + i)) {
			survivors = append(survivors, g)
			ids = append(ids, s.deltaIDs[i])
		}
	}
	if len(survivors) == 0 {
		// Nothing lives: keep the old index (an index over zero graphs is
		// impossible) and tombstone the whole base, dropping the delta.
		s.tombs = index.AllSet(len(s.base))
		s.delta, s.deltaIDs = nil, nil
		return nil
	}
	idx, err := index.Rebase(s.idx, remap, survivors, carried, 0)
	if err != nil {
		return fmt.Errorf("segment: compacting %d graphs: %w", len(survivors), err)
	}
	mCompactCarried.Add(int64(carried))
	mCompactEnumerated.Add(int64(len(survivors) - carried))
	s.base, s.ids, s.idx = survivors, ids, idx
	s.srch = core.NewSearcher(survivors, idx, s.cfg.Core)
	s.delta, s.deltaIDs, s.tombs = nil, nil, nil
	return nil
}

// Live returns the number of live (non-tombstoned) graphs. It reads an
// atomic counter, never the segment lock, so insert routing across
// segments is not blocked by a WAL fsync in progress on this one.
func (s *Segment) Live() int { return int(s.nlive.Load()) }

// Graph returns the live graph with the given global id, or nil.
func (s *Segment) Graph(id int32) *graph.Graph {
	s.mu.RLock()
	defer s.mu.RUnlock()
	local, ok := localOf(s.ids, s.deltaIDs, id)
	if !ok || s.tombs.Has(local) {
		return nil
	}
	if int(local) < len(s.base) {
		return s.base[local]
	}
	return s.delta[int(local)-len(s.base)]
}

// AppendLiveIDs appends the global ids of every live graph, ascending,
// to dst.
func (s *Segment) AppendLiveIDs(dst []int32) []int32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, id := range s.ids {
		if !s.tombs.Has(int32(i)) {
			dst = append(dst, id)
		}
	}
	for i, id := range s.deltaIDs {
		if !s.tombs.Has(int32(len(s.base) + i)) {
			dst = append(dst, id)
		}
	}
	return dst
}

// LearnedSurvival returns what the segment's planner has learned from
// threshold and kNN reads since the last compaction
// (core.Searcher.LearnedSurvival).
func (s *Segment) LearnedSurvival() []core.SurvivalCell {
	return s.snapshot().srch.LearnedSurvival()
}

// Stats is one segment's card: every figure it reports about itself,
// read at one instant. Add sums cards into a zero Stats, the empty
// roll-up.
type Stats struct {
	MutSeq uint64 // see MutSeq
	Live   int
	// MaxID is the largest global id ever assigned through the segment,
	// so an owner can restore its id counter without risking reuse.
	MaxID int32
	// Delta counts inserted graphs not yet folded into the index
	// (tombstoned ones included); Tombstones counts deleted graphs not
	// yet compacted away.
	Delta      int
	Tombstones int
	Index      index.Stats
	// Memory is the heap the index holds beside its class stores, with
	// the fingerprints of the base and delta graphs as FingerprintBytes.
	Memory index.Memory
	// Durable reports a backing store, and Store is its counters (zero
	// for an in-memory segment).
	Durable bool
	Store   store.Stats

	added bool // false marks the empty roll-up
}

// Stats returns the segment's card, read under one lock so that its
// figures describe one state.
func (s *Segment) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		MutSeq:     s.mutSeq,
		Live:       int(s.nlive.Load()),
		MaxID:      s.maxID,
		Delta:      len(s.delta),
		Tombstones: s.tombs.Count(),
		Index:      s.idx.Stats(),
		Memory:     s.idx.Memory(),
		Durable:    s.st != nil,
	}
	st.Memory.FingerprintBytes = int(unsafe.Sizeof(graph.FP{})) * (len(s.base) + len(s.delta))
	if s.st != nil {
		st.Store = s.st.Stats()
	}
	return st
}

// Add folds shard's card o into s. It is the one roll-up of several
// shards, a database's or a cluster's: counts and bytes sum; Index.Classes
// is the larger, since the shards share one feature set, and so is MaxID;
// the sum is durable when every shard is, and its snapshot sequence and
// last checkpoint are the oldest shard's (a zero LastCheckpoint, never,
// is the oldest), the conservative answer to how stale recovery could be;
// and the first poisoned shard names the cause, as "shard N: reason".
// MutSeq and Store.Recovery.SnapshotSeq place one shard in its own
// history, so the roll-up leaves them zero.
func (s *Stats) Add(shard int, o Stats) {
	if o.Store.Poisoned {
		o.Store.PoisonReason = fmt.Sprintf("shard %d: %s", shard, o.Store.PoisonReason)
	}
	if !s.added {
		*s = o
		s.MutSeq, s.Store.Recovery.SnapshotSeq = 0, 0
		s.added = true
		return
	}
	s.Live += o.Live
	s.MaxID = max(s.MaxID, o.MaxID)
	s.Delta += o.Delta
	s.Tombstones += o.Tombstones
	s.Index.Classes = max(s.Index.Classes, o.Index.Classes)
	s.Index.Fragments += o.Index.Fragments
	s.Index.Sequences += o.Index.Sequences
	s.Memory.StoreBytes += o.Memory.StoreBytes
	s.Memory.BitmapBytes += o.Memory.BitmapBytes
	s.Memory.FingerprintBytes += o.Memory.FingerprintBytes
	s.Durable = s.Durable && o.Durable
	a, b := &s.Store, &o.Store
	a.WALRecords += b.WALRecords
	a.WALBytes += b.WALBytes
	a.SnapshotSeq = min(a.SnapshotSeq, b.SnapshotSeq)
	a.Checkpoints += b.Checkpoints
	if b.LastCheckpoint.Before(a.LastCheckpoint) {
		a.LastCheckpoint = b.LastCheckpoint
	}
	a.Recovery.ReplayedRecords += b.Recovery.ReplayedRecords
	a.Recovery.DroppedBytes += b.Recovery.DroppedBytes
	if b.Poisoned && !a.Poisoned {
		a.Poisoned, a.PoisonReason = true, b.PoisonReason
	}
}

// GraphBytes returns the heap the base and delta graphs hold
// (graph.HeapBytes). It walks every graph, outside the lock: inserts only
// append past the slices it reads, and compaction replaces them.
func (s *Segment) GraphBytes() int {
	s.mu.RLock()
	graphs := [2][]*graph.Graph{s.base, s.delta}
	s.mu.RUnlock()
	n := 0
	for _, gs := range graphs {
		for _, g := range gs {
			n += graph.HeapBytes(g)
		}
	}
	return n
}
