// Package pis is a Go implementation of PIS (Partition-based Graph Index
// and Search) from "Searching Substructures with Superimposed Distance"
// (Yan, Zhu, Han, Yu — ICDE 2006): similarity search over graph databases
// where the query structure must occur as a subgraph and the label (or
// weight) differences of the best superposition must stay within a
// threshold σ.
//
// The three-stage pipeline — fragment-based index, partition-based search,
// candidate verification — lives in internal packages; this package is the
// stable public surface:
//
//	db, _ := pis.New(graphs, pis.Options{})
//	result := db.Search(query, 2)      // PIS filtering + verification
//	for _, id := range result.Answers { ... }
//
// Construct graphs with NewGraphBuilder, or load a transaction-format file
// with ReadDatabase. The baseline SearchNaive verifies every graph and
// returns the same answers; it is the reference the tests compare against.
//
// For large databases, NewSharded partitions the graphs into contiguous
// shards indexed and searched in parallel — the same Database type, with
// the same answers — and the server package plus the pisserved command
// expose a database over an HTTP JSON API. Repeated queries are answered
// by each shard's result memo, keyed by the query's canonical form, so an
// isomorphic repeat in any vertex order hits it too.
//
// Databases are durable when rooted in a data directory with Create /
// CreateSharded (or upgraded in place with Persist): every Insert and
// Delete is fsync'd to a write-ahead log before it is acknowledged,
// Checkpoint and Compact write atomic snapshots, and Open recovers the
// exact acknowledged state after a crash — no re-mining, no data loss,
// torn log tails dropped. See README.md at the repository
// root for a quickstart, the transaction file format, durability
// guarantees, and server usage.
package pis

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"pis/internal/core"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
	"pis/internal/obs"
	"pis/internal/segment"
	"pis/internal/shard"
	"pis/internal/store"
)

// ErrNotDurable reports a durability operation (Checkpoint) on a
// database that was built in memory instead of rooted in a data
// directory (Create, CreateSharded, Persist, Open).
var ErrNotDurable = segment.ErrNotDurable

// ErrDeadlineExceeded wraps a query that ran past its context deadline
// (or Options.QueryTimeout). The returned Result still holds whatever
// answers were fully verified before the cutoff — a correct subset of
// the complete answer set, flagged with Stats.Partial — so callers can
// choose between erroring out and serving degraded results.
var ErrDeadlineExceeded = errors.New("pis: query deadline exceeded")

// ErrStorePoisoned marks mutations rejected because the backing store
// hit a disk fault (failed WAL append/fsync or snapshot write) and
// switched to read-only mode to protect the acknowledged prefix.
// Queries keep working; recover by fixing the disk and reopening.
var ErrStorePoisoned = store.ErrPoisoned

// Re-exported graph construction types. Users build labeled undirected
// graphs with a Builder; vertex and edge labels are small integers whose
// meaning the application chooses (atom and bond types, for instance).
type (
	// Graph is a labeled undirected graph.
	Graph = graph.Graph
	// GraphBuilder accumulates vertices and edges.
	GraphBuilder = graph.Builder
	// VLabel is a vertex label.
	VLabel = graph.VLabel
	// ELabel is an edge label.
	ELabel = graph.ELabel
	// Metric scores element superpositions; see EdgeMutation, FullMutation,
	// NewMutationMatrix and Linear.
	Metric = distance.Metric
	// Result carries answers, surviving candidates and stage statistics.
	Result = core.Result
	// SearchStats instruments one query (candidates per stage, timings).
	SearchStats = core.Stats
	// TraceSpan is one timed region of a traced search (see SearchTraced);
	// spans nest into a tree whose root covers the whole query.
	TraceSpan = obs.Span
)

// NewGraphBuilder returns a builder sized for n vertices and m edges.
func NewGraphBuilder(n, m int) *GraphBuilder { return graph.NewBuilder(n, m) }

// Built-in metrics.
var (
	// EdgeMutation counts mismatched edge labels (the paper's experimental
	// measure; vertex labels are ignored).
	EdgeMutation Metric = distance.EdgeMutation{}
	// FullMutation counts mismatched vertex and edge labels.
	FullMutation Metric = distance.FullMutation{}
	// LinearEdgeDistance sums |w - w'| over superimposed edge weights (the
	// paper's linear mutation distance).
	LinearEdgeDistance Metric = distance.Linear{}
)

// NewMutationMatrix returns an editable mutation score matrix metric with
// unit default cost (the MD measure with custom relabeling prices).
func NewMutationMatrix() *distance.Matrix { return distance.NewMatrix() }

// Options configures database construction and search. They translate
// to the one segment configuration every shard of a Database, and every
// replica of a ClusterNode, is built with.
type Options struct {
	// Metric is the superimposed distance measure (default EdgeMutation).
	// It also decides what the index stores per fragment: edge weights
	// under LinearEdgeDistance, labels otherwise (with vertex labels only
	// when the metric prices them).
	Metric Metric

	// MaxFragmentEdges bounds indexed structure size (default 5; the paper
	// sweeps 4-6 in Figure 12). It acts when the database's features are
	// selected, at creation, by the database's one feature policy
	// (mining.Select): the label-free skeletons of up to MaxFragmentEdges
	// edges frequent in a prefix sample of the graphs, less those fewer
	// than 1 % of the sample lack. The set may be empty; the database then
	// answers by prescreen and verification alone. It must be at least 2,
	// the size of the smallest skeleton indexed. Open ignores it.
	MaxFragmentEdges int

	// PlannerOff disables the cost-based query planner: every usable
	// fragment's σ range query runs in enumeration order, exactly the
	// paper's Algorithm 2. With the planner on (the default), classes
	// expand in order of estimated pruning power per unit cost, and
	// expansion stops once a range query costs more than verifying the
	// candidates it could eliminate, by the filter/verify exchange rate
	// the planner learns from counted work — probe units and ids of each
	// range query, nodes and candidates of each verification, at fixed
	// prices — so a query plans alike on a busy machine. Answers are
	// identical either way; only filtering effort changes.
	PlannerOff bool

	// QueryTimeout bounds every SearchContext / SearchKNNContext /
	// SearchBatchContext call (0 = none): queries that run longer are cut
	// off at the next verification-task boundary and return
	// ErrDeadlineExceeded with the answers verified so far. Plain Search,
	// SearchKNN and SearchBatch are never bounded (they take no context).
	QueryTimeout time.Duration

	// CompactFraction tunes the live-mutation compaction policy: after an
	// Insert, when a shard's unindexed delta holds more than
	// CompactFraction times its indexed graph count,
	// the delta and any tombstones are folded into a new index (merged
	// forward from the current one, see Compact).
	// 0 means the default 0.25; a negative value disables automatic
	// compaction (Compact can still be called explicitly).
	CompactFraction float64

	// MappedIndex is read by nothing: a database holds its index on the
	// heap, decoded from the store's side file at Open.
	//
	// Deprecated: MappedIndex is ignored; it stays so existing callers
	// still compile.
	MappedIndex bool
}

// Database is an indexed graph database answering SSSD queries, held as
// one or more contiguous shards, each a segment with its own fragment
// index, searched with parallel fan-out and merge (New builds one shard,
// NewSharded any number). The shard count never changes an answer:
// Search returns the same answer set and SearchKNN the same neighbors in
// the same order; only the per-stage statistics differ (counters
// aggregate across shards). The search methods are those of the query
// surface a ClusterNode shares (query.go).
//
// It is mutable while serving: Insert appends graphs to the unindexed
// delta of the shard with the fewest live graphs, Delete tombstones
// graphs, and Compact (automatic by default, per shard, see
// Options.CompactFraction) folds both into a new index. Graph
// ids are assigned once — input order at construction, then one new id
// per Insert — and are never reused or renumbered, so they stay stable
// across compactions. Every query runs against a consistent snapshot
// taken when it starts (per-request snapshot semantics).
type Database struct {
	querySurface
	segs []*segment.Segment

	mu     sync.Mutex // serializes id assignment and insert routing
	nextID int32
}

func newDatabase(segs []*segment.Segment, nextID int32, opts Options) *Database {
	shards := make([]shard.Searcher, len(segs))
	for i, seg := range segs {
		shards[i] = seg
	}
	return &Database{querySurface: querySurface{shards: shards, queryTimeout: opts.QueryTimeout}, segs: segs, nextID: nextID}
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

// withDefaults fills the zero-value construction knobs with the paper's
// defaults and rejects a cost matrix with a negative or NaN cost.
func (o Options) withDefaults() (Options, error) {
	if o.Metric == nil {
		o.Metric = EdgeMutation
	}
	if o.MaxFragmentEdges <= 0 {
		o.MaxFragmentEdges = 5
	}
	if o.CompactFraction == 0 {
		o.CompactFraction = 0.25
	}
	if m, ok := o.Metric.(*distance.Matrix); ok {
		return o, m.Validate()
	}
	return o, nil
}

// segmentConfig translates the public knobs to the segment package.
func (o Options) segmentConfig() segment.Config {
	return segment.Config{
		Index:           index.Options{Metric: o.Metric},
		Core:            core.Options{PlannerOff: o.PlannerOff},
		CompactFraction: o.CompactFraction,
	}
}

// selectFeatures runs the database's one feature policy, mining.Select,
// whose smallest skeleton has 2 edges.
func selectFeatures(graphs []*Graph, maxEdges int) ([]mining.Feature, error) {
	if maxEdges < 2 {
		return nil, fmt.Errorf("MaxFragmentEdges must be at least 2, got %d", maxEdges)
	}
	return mining.Select(graphs, maxEdges)
}

// New indexes the given graphs as one shard. The slice is retained; do
// not mutate the graphs afterwards. Graph i gets id i; later Inserts
// continue from len(graphs).
func New(graphs []*Graph, opts Options) (*Database, error) {
	return NewSharded(graphs, 1, opts)
}

// NewSharded selects the database's features once, over a prefix sample
// of graphs (see MaxFragmentEdges), then splits graphs into nShards
// contiguous shards and builds every shard's fragment index under those
// features concurrently (one goroutine per shard, each building on
// GOMAXPROCS workers). With one
// shard the sample is the one New has always mined. nShards is clamped
// to len(graphs).
func NewSharded(graphs []*Graph, nShards int, opts Options) (*Database, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("pis: empty database")
	}
	if nShards < 1 {
		return nil, fmt.Errorf("pis: nShards must be >= 1, got %d", nShards)
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	feats, err := selectFeatures(graphs, opts.MaxFragmentEdges)
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	cfg := opts.segmentConfig()
	ranges := shard.Split(len(graphs), nShards)
	segs := make([]*segment.Segment, len(ranges))
	err = eachShard(len(ranges), func(i int) (err error) {
		r := ranges[i]
		segs[i], err = segment.New(graphs[r.Start:r.End], int32(r.Start), feats, cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	return newDatabase(segs, int32(len(graphs)), opts), nil
}

// Create builds an indexed database over graphs exactly like New and
// makes it durable, rooted at the directory dir (created if needed,
// which must not already hold a store): the initial snapshot is written
// before Create returns, every later Insert and Delete is appended to a
// write-ahead log and fsync'd before it is acknowledged, and Open
// restores the exact acknowledged state after a crash or restart.
func Create(dir string, graphs []*Graph, opts Options) (*Database, error) {
	return CreateSharded(dir, graphs, 1, opts)
}

// CreateSharded builds a database like NewSharded and makes it durable,
// rooted at dir: a root manifest records the shard layout and every
// shard gets its own snapshot + WAL pair. See Create for the durability
// contract.
func CreateSharded(dir string, graphs []*Graph, nShards int, opts Options) (*Database, error) {
	db, err := NewSharded(graphs, nShards, opts)
	if err != nil {
		return nil, err
	}
	if err := db.Persist(dir); err != nil {
		return nil, err
	}
	return db, nil
}

// Persist attaches new backing stores at dir to an in-memory database,
// writing every shard's full current state (index included, no rebuild)
// as its initial snapshot, in parallel — graphs, tombstones, delta, and
// the index as an idx-<seq>.pisidx3 side file; afterwards the database
// is durable exactly as if built by Create, and restarts go through Open.
//
// The root manifest is written last, after every shard store is fully
// established, so a crash mid-Persist leaves a directory that still
// reads as "no store" and the next start rebuilds instead of wedging
// (shard directories such an aborted attempt left behind are cleared
// first). A Persist that fails rolls every shard back to in-memory, so
// it can be retried into another directory.
func (db *Database) Persist(dir string) error {
	if db.durable() {
		return fmt.Errorf("pis: database is already durable")
	}
	if store.RootExists(dir) {
		return fmt.Errorf("pis: %s already holds a database store", dir)
	}
	err := eachShard(len(db.segs), func(i int) error {
		sd := store.ShardDir(dir, i)
		if store.Exists(sd) {
			if err := os.RemoveAll(sd); err != nil {
				return err
			}
		}
		return db.segs[i].Persist(sd)
	})
	if err == nil {
		err = store.WriteRootManifest(dir, len(db.segs))
	}
	if err != nil {
		// A half-durable database would fsync mutations into stores no
		// root manifest will ever name, and a retry would be rejected.
		for _, seg := range db.segs {
			seg.AbandonStore()
		}
		return fmt.Errorf("pis: %w", err)
	}
	return nil
}

// StoreExists reports whether dir holds a database store written by
// Create/CreateSharded/Persist (a parseable root manifest), so callers
// can decide between Open and a fresh build without trial and error.
func StoreExists(dir string) bool {
	_, err := store.ReadRootManifest(dir)
	return err == nil
}

// Open recovers a durable database from its data directory; the shard
// count comes from the root manifest and the shards recover in parallel.
// Per shard the newest valid snapshot is loaded (no re-mining), the
// WAL's valid prefix is replayed, and a torn final record — a crash
// mid-write of a mutation that was never acknowledged — is dropped. The
// snapshot's index side file is decoded onto the heap. opts.Metric must
// match the build-time metric, and the index must carry the fingerprint
// of the recovered graphs; PlannerOff, QueryTimeout and CompactFraction
// are honored from opts. Every shard keeps the features its store holds,
// so MaxFragmentEdges is ignored. Ids resume past every id ever
// assigned, so a recovered database never reuses one.
func Open(dir string, opts Options) (*Database, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	nShards, err := store.ReadRootManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	cfg := opts.segmentConfig()
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
		return nil, fmt.Errorf("pis: %w", err)
	}
	nextID := int32(0)
	for _, seg := range segs {
		nextID = max(nextID, seg.Stats().MaxID+1)
	}
	return newDatabase(segs, nextID, opts), nil
}

// NumShards returns the shard count.
func (db *Database) NumShards() int { return len(db.segs) }

// Len returns the number of live graphs.
func (db *Database) Len() int {
	n := 0
	for _, seg := range db.segs {
		n += seg.Live()
	}
	return n
}

// Graph returns the live graph with the given id, or nil when the id was
// never assigned or the graph has been deleted.
func (db *Database) Graph(id int32) *Graph {
	for _, seg := range db.segs {
		if g := seg.Graph(id); g != nil {
			return g
		}
	}
	return nil
}

// LiveIDs returns the ids of every live graph, ascending.
func (db *Database) LiveIDs() []int32 {
	var ids []int32
	for _, seg := range db.segs {
		ids = seg.AppendLiveIDs(ids)
	}
	slices.Sort(ids)
	return ids
}

// Insert appends g to the shard with the fewest live graphs under a
// fresh stable id, which it returns. The graph lands in that shard's
// in-memory delta and is searchable immediately; once the delta
// outgrows Options.CompactFraction of the shard's indexed size it is
// folded into the index (see Compact). On a durable database the insert is
// written to the WAL and fsync'd before it is acknowledged; a logging
// failure rejects the mutation and returns id -1 with the error — the
// id reserved for the rejected insert is consumed, so later ids skip it.
// Otherwise a non-nil error reports a failed automatic compaction (the
// delta is retained, answers stay exact).
func (db *Database) Insert(g *Graph) (int32, error) {
	// db.mu covers only routing and id assignment: the target shard's
	// insert slot is claimed (Reserve) before db.mu is released, so its
	// id order and append order agree even when inserts race, and the WAL
	// append and fsync run outside db.mu. Shards are probed with
	// TryReserve smallest first, so one tied up in an fsync or a
	// compaction is skipped for the next-smallest; only when every shard
	// has an insert in flight does the call wait, on the smallest.
	db.mu.Lock()
	var seg *segment.Segment
	probed := make([]bool, len(db.segs))
	for range db.segs {
		best := -1
		for i, s := range db.segs {
			if !probed[i] && (best < 0 || s.Live() < db.segs[best].Live()) {
				best = i
			}
		}
		if db.segs[best].TryReserve() {
			seg = db.segs[best]
			break
		}
		probed[best] = true
	}
	if seg == nil {
		seg = slices.MinFunc(db.segs, func(a, b *segment.Segment) int { return a.Live() - b.Live() })
		seg.Reserve()
	}
	id := db.nextID
	db.nextID++
	db.mu.Unlock()
	needsCompact, err := seg.CommitInsert(g, id)
	if err != nil {
		return -1, err
	}
	if needsCompact {
		// Outside db.mu: a merge on one shard must not stall inserts
		// routed to the others.
		return id, seg.Compact()
	}
	return id, nil
}

// Delete removes the graph with the given id from all future query
// results (a tombstone; the index is cleaned up at the next compaction).
// It reports whether the id was present and live. On a durable database
// a live delete is WAL-logged and fsync'd before it is acknowledged; on
// a logging failure the graph stays live and the error is returned.
func (db *Database) Delete(id int32) (bool, error) {
	for _, seg := range db.segs {
		ok, err := seg.Delete(id)
		if ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// Compact folds every shard's delta and tombstones into a new index over
// the surviving graphs, in parallel. A shard merges: the entries of its
// current index carry over, only the delta's graphs are walked, and the
// features are the ones mined at creation, which gives bit for bit the
// index a build over the survivors with those features would. Automatic
// and explicit compactions are the same merge. Ids are unchanged. On
// error the failed shards keep serving their pre-compaction state, still
// exactly, and the lowest-numbered one's error is returned. On a durable
// database each shard's successful compaction also writes a fresh
// snapshot and truncates its WAL.
func (db *Database) Compact() error {
	return eachShard(len(db.segs), func(i int) error { return db.segs[i].Compact() })
}

// Checkpoint writes every shard's current state — graphs, base index,
// delta, tombstones — as a fresh atomic snapshot and truncates its WAL,
// in parallel, without rebuilding any index. It returns ErrNotDurable
// for an in-memory database.
func (db *Database) Checkpoint() error {
	if !db.durable() {
		return ErrNotDurable
	}
	return eachShard(len(db.segs), func(i int) error { return db.segs[i].Checkpoint() })
}

// durable reports whether the database has backing stores.
func (db *Database) durable() bool { return db.segs[0].Stats().Durable }

// Close releases the backing stores' file handles. Queries keep working;
// a durable database's mutations fail afterwards, an in-memory one's not.
func (db *Database) Close() error {
	var first error
	for _, seg := range db.segs {
		if err := seg.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DurabilityStats reports the state of a database's backing store.
type DurabilityStats struct {
	// Durable is false for in-memory databases; every other field is
	// zero in that case.
	Durable bool
	// WALRecords and WALBytes measure the active log: acknowledged
	// mutations not yet folded into a snapshot (summed across shards).
	WALRecords int64
	WALBytes   int64
	// SnapshotSeq is the current snapshot sequence number (the smallest
	// across shards).
	SnapshotSeq uint64
	// Checkpoints counts snapshots written by this process, and
	// LastCheckpoint stamps the most recent one (zero when none; with
	// several shards, the oldest shard's).
	Checkpoints    int64
	LastCheckpoint time.Time
	// ReplayedRecords counts WAL records applied during recovery when
	// the database was opened; RecoveryDroppedBytes counts torn or
	// corrupt WAL tail bytes that were discarded (0 = clean shutdown or
	// clean crash).
	ReplayedRecords      int
	RecoveryDroppedBytes int64
	// Poisoned is true after a disk fault put the store (any shard's)
	// into read-only mode: mutations fail with ErrStorePoisoned, queries
	// keep answering from memory. PoisonReason names the first poisoned
	// shard and its fault ("shard N: ...").
	Poisoned     bool
	PoisonReason string
}

// Stats is a backend's status: its shards' cards, each read under one
// lock and summed by one rule (segment.Stats.Add). Reading it is
// O(shards); no figure walks the graphs, as Database.GraphBytes does.
type Stats struct {
	Index      IndexStats
	Durability DurabilityStats
	// Cluster is a ClusterNode's membership; nil on a Database.
	Cluster *ClusterStats
}

// Stats reads every shard's card once and sums them. Counts and bytes
// sum; Features is the largest shard's class count, the one feature set
// the shards share; the snapshot sequence and last checkpoint are the
// oldest shard's, the conservative answer to "how stale could recovery
// be"; one poisoned shard makes the database read-only for inserts, since
// routing cannot promise to avoid it, and the first one names the cause.
func (db *Database) Stats() Stats {
	var t segment.Stats
	for i, seg := range db.segs {
		t.Add(i, seg.Stats())
	}
	return statsOf(t)
}

// GraphBytes returns the heap the base and delta graphs of every shard
// hold, cached invariants included (graph.HeapBytes): a walk over every
// graph, O(graphs), which is why Stats leaves it out.
func (db *Database) GraphBytes() int {
	n := 0
	for _, seg := range db.segs {
		n += seg.GraphBytes()
	}
	return n
}

// statsOf is the public form of a summed card, the one conversion a
// Database and a ClusterNode report through.
func statsOf(t segment.Stats) Stats {
	out := Stats{Index: IndexStats{
		Features:         t.Index.Classes,
		Fragments:        t.Index.Fragments,
		Sequences:        t.Index.Sequences,
		Delta:            t.Delta,
		Tombstones:       t.Tombstones,
		StoreBytes:       t.Memory.StoreBytes,
		BitmapBytes:      t.Memory.BitmapBytes,
		FingerprintBytes: t.Memory.FingerprintBytes,
	}}
	if t.Durable {
		s := &t.Store
		out.Durability = DurabilityStats{
			Durable:              true,
			WALRecords:           s.WALRecords,
			WALBytes:             s.WALBytes,
			SnapshotSeq:          s.SnapshotSeq,
			Checkpoints:          s.Checkpoints,
			LastCheckpoint:       s.LastCheckpoint,
			ReplayedRecords:      s.Recovery.ReplayedRecords,
			RecoveryDroppedBytes: s.Recovery.DroppedBytes,
			Poisoned:             s.Poisoned,
			PoisonReason:         s.PoisonReason,
		}
	}
	return out
}

// SearchNaive verifies every graph; the reference answer. The query must
// be connected. One shard's answer is the segment's as it is, so the
// oracle of a one-shard database is the segment's, bit for bit.
func (db *Database) SearchNaive(q *Graph, sigma float64) Result {
	mustBeConnected(q)
	if len(db.segs) == 1 {
		return db.segs[0].SearchNaive(q, sigma)
	}
	parts := make([]Result, len(db.segs))
	for i, seg := range db.segs {
		parts[i] = seg.SearchNaive(q, sigma)
	}
	return core.MergeGlobal(parts)
}

// Neighbor is one nearest-neighbor result.
type Neighbor = core.Neighbor

// PlannerCell is one thing the query planner has learned by running
// range queries: in shard Shard, a σ range query over a fragment of
// feature class Class at ⌊σ⌋ = SigmaBucket (the last bucket, 8, is
// open-ended) leaves Survival of the candidates it is applied to standing
// — an exponentially-weighted average over the times it ran. The planner
// ranks and skips range queries by it; cells exist only for (class, σ)
// pairs that have run since the shard's index was last built.
type PlannerCell struct {
	Shard       int     `json:"shard"`
	Class       int     `json:"class"`
	SigmaBucket int     `json:"sigma_bucket"`
	Survival    float64 `json:"survival"`
}

// PlannerState reports every shard's learned planner survival rates.
func (db *Database) PlannerState() []PlannerCell {
	var out []PlannerCell
	for i, seg := range db.segs {
		for _, c := range seg.LearnedSurvival() {
			out = append(out, PlannerCell{Shard: i, Class: c.Class, SigmaBucket: c.SigmaBucket, Survival: c.Survival})
		}
	}
	return out
}

// IndexStats summarizes the fragment index and its mutation overlay, every
// figure a field of each shard's card, so reading it is O(shards). Its
// JSON form is the "index" object of pisserved's /stats and /compact,
// which add graph_bytes (Database.GraphBytes).
type IndexStats struct {
	// Features counts the database's selected structure features
	// (equivalence classes), the one set every shard indexes under; a
	// skeleton fewer than 1 % of the sample lack is not selected. It may
	// be 0, when the database answers by prescreen and verification alone.
	Features int `json:"features"`
	// Fragments counts the (label sequence, graph) pairs the index stores:
	// a sequence that occurs several times inside one graph counts once
	// for it.
	Fragments int `json:"fragments"`
	Sequences int `json:"sequences"` // distinct stored label sequences / vectors
	// Delta counts inserted graphs not yet folded into the index;
	// Tombstones counts deleted graphs not yet compacted away.
	Delta      int `json:"delta"`
	Tombstones int `json:"tombstones"`
	// StoreBytes is the class entry blocks the index holds on the heap,
	// summed over the shards: the slab of its image, byte for byte.
	StoreBytes int `json:"store_bytes"`
	// BitmapBytes and FingerprintBytes are heap beside the stored
	// sequences, summed over the shards, and not part of the index file:
	// the class bitmaps the structural
	// intersection ANDs (features × graphs / 8 per shard), read off the
	// entry blocks' id runs when an index is opened, and the prescreen
	// fingerprints the base and delta graphs carry (graph.FP).
	BitmapBytes      int `json:"bitmap_bytes"`
	FingerprintBytes int `json:"fingerprint_bytes"`
}

// ReadDatabase loads graphs in the line-oriented transaction format
// ("t # id" / "v id label [weight]" / "e u v label [weight]").
func ReadDatabase(r io.Reader) ([]*Graph, error) { return graph.ReadDB(r) }

// WriteDatabase writes graphs in the transaction format.
func WriteDatabase(w io.Writer, graphs []*Graph) error { return graph.WriteDB(w, graphs) }
