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
// expose a database over an HTTP JSON API with a canonical-query result
// cache.
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
	// sweeps 4-6 in Figure 12). Like MinSupportFraction, it acts when the
	// database's features are mined, at creation; Open ignores both.
	MaxFragmentEdges int
	// MinSupportFraction is the mining support threshold (default 0.05).
	MinSupportFraction float64

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

	// MappedIndex serves the fragment index memory-mapped from its
	// on-disk image (the PISIDX3 layout) instead of heap-resident: builds
	// and compactions write the index to disk and reopen it through mmap,
	// and Open maps the snapshot's index side file directly. The class
	// posting and entry blocks are the same bytes either way and are read
	// by the same scan; mapped, they stay in the kernel page cache and
	// are demand-paged, so the index can exceed RAM, while the directory,
	// the posting bitmaps and the fingerprints stay on the heap. A durable store holds
	// the same files either way, so each Open may choose afresh. Answers
	// are byte-identical to the heap index. With MappedIndex set, Close
	// unmaps the index, so queries must stop before Close.
	MappedIndex bool
}

// Mining constants: features have at least minFragmentEdges edges and are
// mined on a prefix sample of at most miningSample graphs. Postings always
// cover the full database.
const (
	minFragmentEdges = 2
	miningSample     = 300
)

// mineFeatures selects the database's one feature set (the paper's §4,
// step 1) over the first miningSample graphs. It runs once per database,
// at creation; every shard and replica indexes under its result, and
// compactions keep the features their index carries.
func mineFeatures(graphs []*Graph, opts Options) ([]mining.Feature, error) {
	feats, err := mining.Mine(graphs, mining.Options{
		MaxEdges:           opts.MaxFragmentEdges,
		MinEdges:           minFragmentEdges,
		MinSupportFraction: opts.MinSupportFraction,
		SampleSize:         miningSample,
	})
	if err != nil {
		return nil, fmt.Errorf("pis: mining features: %w", err)
	}
	if len(feats) == 0 {
		return nil, fmt.Errorf("pis: no features met the support threshold; lower MinSupportFraction")
	}
	return feats, nil
}

// Database is an indexed graph database answering SSSD queries, held as
// one or more contiguous shards, each with its own fragment index,
// searched with parallel fan-out and merge (New builds one shard,
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
	db *shard.DB
}

func newDatabase(db *shard.DB, opts Options) *Database {
	return &Database{querySurface: querySurface{fan: db, queryTimeout: opts.QueryTimeout}, db: db}
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
	if o.MinSupportFraction <= 0 {
		o.MinSupportFraction = 0.05
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
		MappedIndex:     o.MappedIndex,
	}
}

// New indexes the given graphs as one shard. The slice is retained; do
// not mutate the graphs afterwards. Graph i gets id i; later Inserts
// continue from len(graphs).
func New(graphs []*Graph, opts Options) (*Database, error) {
	return NewSharded(graphs, 1, opts)
}

// NewSharded mines the database's features once, over a prefix sample
// of graphs, then splits graphs into nShards contiguous shards and builds
// every shard's fragment index under those features concurrently. With
// one shard the sample is the one New has always mined. nShards is
// clamped to len(graphs).
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
	feats, err := mineFeatures(graphs, opts)
	if err != nil {
		return nil, err
	}
	db, err := shard.New(graphs, nShards, feats, opts.segmentConfig())
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	return newDatabase(db, opts), nil
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
// as its initial snapshot — graphs, tombstones, delta, and the index as
// an idx-<seq>.pisidx3 side file; afterwards the database is durable
// exactly as if built by Create, and restarts go through Open.
//
// The root manifest is written last, after every shard store is fully
// established, so a crash mid-Persist leaves a directory that still
// reads as "no store" and the next start rebuilds instead of wedging.
// A Persist that fails rolls every shard back to in-memory, so it can be
// retried into another directory.
func (db *Database) Persist(dir string) error {
	if err := db.db.Persist(dir); err != nil {
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
// snapshot's index side file is decoded onto the heap, or memory-mapped
// when opts.MappedIndex is set: residency is chosen per Open, whatever
// the store was created with. opts.Metric must match the build-time
// metric, and the index must carry the fingerprint of the recovered
// graphs; PlannerOff, QueryTimeout and CompactFraction are honored from
// opts. Every shard keeps the features its store holds, so
// MaxFragmentEdges and MinSupportFraction are ignored.
func Open(dir string, opts Options) (*Database, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	db, err := shard.Open(dir, opts.segmentConfig())
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	return newDatabase(db, opts), nil
}

// NumShards returns the shard count.
func (db *Database) NumShards() int { return db.db.NumShards() }

// Len returns the number of live graphs.
func (db *Database) Len() int { return db.db.Len() }

// Graph returns the live graph with the given id, or nil when the id was
// never assigned or the graph has been deleted.
func (db *Database) Graph(id int32) *Graph { return db.db.Graph(id) }

// LiveIDs returns the ids of every live graph, ascending.
func (db *Database) LiveIDs() []int32 { return db.db.LiveIDs() }

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
func (db *Database) Insert(g *Graph) (int32, error) { return db.db.Insert(g) }

// Delete removes the graph with the given id from all future query
// results (a tombstone; the index is cleaned up at the next compaction).
// It reports whether the id was present and live. On a durable database
// a live delete is WAL-logged and fsync'd before it is acknowledged; on
// a logging failure the graph stays live and the error is returned.
func (db *Database) Delete(id int32) (bool, error) { return db.db.Delete(id) }

// Compact folds every shard's delta and tombstones into a new index over
// the surviving graphs, in parallel. A shard merges: the entries of its
// current index carry over, only the delta's graphs are walked, and the
// features are the ones mined at creation, which gives bit for bit the
// index a build over the survivors with those features would. Automatic
// and explicit compactions are the same merge. Ids are unchanged. On error the database keeps serving its pre-compaction
// state, still exactly. On a durable database each shard's successful
// compaction also writes a fresh snapshot and truncates its WAL.
func (db *Database) Compact() error { return db.db.Compact() }

// Checkpoint writes every shard's current state — graphs, base index,
// delta, tombstones — as a fresh atomic snapshot and truncates its WAL,
// in parallel, without rebuilding any index. It returns ErrNotDurable
// for an in-memory database.
func (db *Database) Checkpoint() error { return db.db.Checkpoint() }

// Close releases the backing stores' file handles (a no-op for an
// in-memory database). Queries keep working; mutations fail afterwards.
func (db *Database) Close() error { return db.db.Close() }

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
	// keep answering from memory. PoisonReason describes the first fault.
	Poisoned     bool
	PoisonReason string
}

// Durability reports the backing store's counters aggregated across
// shards; Durable is false for an in-memory database.
func (db *Database) Durability() DurabilityStats {
	st, ok := db.db.StoreStats()
	if !ok {
		return DurabilityStats{}
	}
	return DurabilityStats{
		Durable:              true,
		WALRecords:           st.WALRecords,
		WALBytes:             st.WALBytes,
		SnapshotSeq:          st.SnapshotSeq,
		Checkpoints:          st.Checkpoints,
		LastCheckpoint:       st.LastCheckpoint,
		ReplayedRecords:      st.Recovery.ReplayedRecords,
		RecoveryDroppedBytes: st.Recovery.DroppedBytes,
		Poisoned:             st.Poisoned,
		PoisonReason:         st.PoisonReason,
	}
}

// SearchNaive verifies every graph; the reference answer. The query must
// be connected.
func (db *Database) SearchNaive(q *Graph, sigma float64) Result {
	mustBeConnected(q)
	return db.db.SearchNaive(q, sigma)
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
	Shard       int
	Class       int
	SigmaBucket int
	Survival    float64
}

// PlannerState reports every shard's learned planner survival rates.
func (db *Database) PlannerState() []PlannerCell {
	var out []PlannerCell
	for i, cells := range db.db.LearnedSurvival() {
		for _, c := range cells {
			out = append(out, PlannerCell{Shard: i, Class: c.Class, SigmaBucket: c.SigmaBucket, Survival: c.Survival})
		}
	}
	return out
}

// IndexStats summarizes the fragment index and its mutation overlay.
type IndexStats struct {
	Features int // selected structure features (equivalence classes)
	// Fragments counts the (label sequence, graph) pairs the index stores:
	// a sequence that occurs several times inside one graph counts once
	// for it.
	Fragments int
	Sequences int // distinct stored label sequences / vectors
	// Delta counts inserted graphs not yet folded into the index;
	// Tombstones counts deleted graphs not yet compacted away.
	Delta      int
	Tombstones int
	// StoreBytes is the class entry and posting blocks the index holds on
	// the heap, summed over the shards: the slab of its image, 0 under
	// MappedIndex, where those bytes stay in the mapping.
	StoreBytes int
	// BitmapBytes and FingerprintBytes are the heap the index holds beside
	// the stored sequences, summed over the shards — resident under
	// MappedIndex too, and not part of the index file's size: the class
	// posting bitmaps the structural intersection ANDs (features × graphs
	// / 8 per shard) and the per-graph prescreen fingerprints.
	BitmapBytes      int
	FingerprintBytes int
}

// Stats sums the per-shard index counters. Features counts the feature
// set the shards share, once.
func (db *Database) Stats() IndexStats {
	st, mem := db.db.Stats()
	delta, tombs := db.db.Overlay()
	return IndexStats{
		Features: st.Classes, Fragments: st.Fragments, Sequences: st.Sequences,
		Delta: delta, Tombstones: tombs,
		StoreBytes: mem.StoreBytes, BitmapBytes: mem.BitmapBytes, FingerprintBytes: mem.FingerprintBytes,
	}
}

// ReadDatabase loads graphs in the line-oriented transaction format
// ("t # id" / "v id label [weight]" / "e u v label [weight]").
func ReadDatabase(r io.Reader) ([]*Graph, error) { return graph.ReadDB(r) }

// WriteDatabase writes graphs in the transaction format.
func WriteDatabase(w io.Writer, graphs []*Graph) error { return graph.WriteDB(w, graphs) }
