// Package store implements the durable storage engine under one mutable
// database segment: an atomic on-disk snapshot of the segment's full
// state plus an append-only write-ahead log of the mutations applied
// since that snapshot was taken.
//
// Layout of one segment store directory:
//
//	MANIFEST              names the live snapshot/WAL pair (temp+rename)
//	snap-<seq>.pissnap    snapshot: graphs, tombstones, delta
//	idx-<seq>.pisidx3     the snapshot's base index (a PISIDX3 image)
//	wal-<seq>             mutation log since snapshot <seq>
//
// Every mutation is framed as a length-prefixed, CRC32-checksummed
// record and fsync'd before the store acknowledges it, so an
// acknowledged Insert or Delete survives a crash at any instant. A
// checkpoint writes a fresh snapshot via temp-file-then-rename, creates
// the paired empty WAL, and only then swings MANIFEST — so recovery
// always finds a consistent (snapshot, log) pair no matter where the
// process died. Replay tolerates a torn or corrupted log tail: the valid
// prefix is applied, the tail is discarded and truncated away, and the
// loss is reported in RecoveryStats (only a mutation that was never
// acknowledged can be in the tail).
//
// The store knows nothing about searching; the segment package layers
// the live database on top and the shard package arranges one store per
// shard under a root directory (WriteRootManifest/ShardDir).
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"pis/internal/binio"
	"pis/internal/distance"
	"pis/internal/fsys"
	"pis/internal/graph"
	"pis/internal/index"
)

// File and FS are the filesystem seam every disk operation of the store
// goes through (package fsys); OSFS, the default, is the real one.
type (
	File = fsys.File
	FS   = fsys.FS
)

// OSFS is the real filesystem: every method is the matching os call.
var OSFS = fsys.OS

const (
	manifestName  = "MANIFEST"
	manifestMagic = "pis-segment-store v1"
	snapMagic     = "PISSNAP2"

	// WAL record op codes.
	OpInsert byte = 1
	OpDelete byte = 2
)

// Record is one decoded WAL mutation.
type Record struct {
	Op    byte
	ID    int32
	Graph *graph.Graph // OpInsert only
}

// RecordInfo is a Record plus its framing position, for WAL inspection.
type RecordInfo struct {
	Record
	Start, End int64 // byte offsets of the framed record in the log
}

// Snapshot is the full durable state of one segment at a checkpoint.
type Snapshot struct {
	// NextID is the lowest global id never assigned through this segment;
	// persisted so a crash after deletes and a compaction cannot lead to
	// id reuse.
	NextID int32
	// Base and BaseIDs are the indexed graphs with their global ids.
	Base    []*graph.Graph
	BaseIDs []int32
	// Index is the fragment index over Base.
	Index *index.Index
	// Tombs lists tombstoned global ids (base or delta positions).
	Tombs []int32
	// Delta and DeltaIDs are inserted, not-yet-indexed graphs.
	Delta    []*graph.Graph
	DeltaIDs []int32
	// MutSeq is the shard's mutation sequence number at checkpoint time:
	// the count of acknowledged mutations (inserts + deletes) ever applied
	// to the shard. The live sequence is then MutSeq plus the record count
	// of the active WAL, which is what lets replica catch-up decide
	// between WAL shipping and a full snapshot transfer by comparing two
	// numbers. Zero in snapshots written before the field existed.
	MutSeq uint64
}

// RecoveryStats describes what Open found on disk.
type RecoveryStats struct {
	SnapshotSeq     uint64 // sequence number of the snapshot loaded
	ReplayedRecords int    // valid WAL records applied after the snapshot
	DroppedBytes    int64  // torn/corrupt WAL tail discarded (0 = clean)
}

// Stats is the live durability state of one store.
type Stats struct {
	WALRecords     int64 // records in the active log (since last snapshot)
	WALBytes       int64
	SnapshotSeq    uint64
	Checkpoints    int64     // snapshots written by this process
	LastCheckpoint time.Time // zero when no snapshot was written yet
	Recovery       RecoveryStats
	// Poisoned reports the store is in degraded read-only mode after a
	// disk fault; PoisonReason carries the original error text.
	Poisoned     bool
	PoisonReason string
}

// ErrPoisoned is wrapped by every mutation error after a disk fault has
// poisoned the store. Use errors.Is to detect it.
var ErrPoisoned = errors.New("store poisoned (read-only after a disk fault)")

// Store is the durable backing of one segment. Appends and checkpoints
// are safe for concurrent use.
type Store struct {
	dir string
	fs  FS

	mu             sync.Mutex
	wal            File
	walRecords     int64
	walBytes       int64
	seq            uint64
	checkpoints    int64
	lastCheckpoint time.Time
	recovery       RecoveryStats
	// poisoned latches the first WAL/snapshot disk fault. Once set, every
	// later mutation fails with ErrPoisoned: after a failed fsync the
	// kernel may have dropped the dirty pages, so "retry and hope" can
	// acknowledge a mutation that never reached disk. Reads are untouched.
	poisoned error
}

// Exists reports whether dir holds an initialized segment store.
func Exists(dir string) bool { return existsFS(OSFS, dir) }

func existsFS(fs FS, dir string) bool {
	_, err := fs.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// CreateFS prepares dir for a new segment store on fs (nil means OSFS).
// The store is not readable until the first WriteSnapshot establishes the
// initial (snapshot, WAL) pair; a crash before that leaves no MANIFEST,
// so a later OpenWith fails cleanly and the caller rebuilds.
func CreateFS(dir string, fs FS) (*Store, error) {
	if fs == nil {
		fs = OSFS
	}
	if existsFS(fs, dir) {
		return nil, fmt.Errorf("store: %s already holds a segment store", dir)
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, fs: fs}, nil
}

// OpenOptions tunes OpenWith.
type OpenOptions struct {
	// FS routes disk operations; nil means the real filesystem.
	FS FS
	// MappedIndex memory-maps the snapshot's index side file instead of
	// decoding it onto the heap. It requires the real filesystem; with an
	// injected FS the side file is read through the FS and decoded onto
	// the heap as usual.
	MappedIndex bool
}

// OpenWith recovers the segment state from dir: the newest valid
// snapshot plus the decoded valid prefix of its WAL, in append order. A
// torn or corrupt log tail is truncated away (and reported in
// Stats().Recovery); the WAL is then reopened for appends, so the store
// is immediately writable. The metric must match the one the index was
// built with.
func OpenWith(dir string, metric distance.Metric, o OpenOptions) (*Store, *Snapshot, []Record, error) {
	fs := o.FS
	if fs == nil {
		fs = OSFS
	}
	snapName, walName, err := readManifest(fs, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	snap, seq, err := loadSnapshot(fs, filepath.Join(dir, snapName), metric, o.MappedIndex && fs == OSFS)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: snapshot %s: %w", snapName, err)
	}
	walPath := filepath.Join(dir, walName)
	infos, validLen, err := scanWAL(fs, walPath)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: wal %s: %w", walName, err)
	}
	st := &Store{dir: dir, fs: fs, seq: seq}
	fi, err := fs.Stat(walPath)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: wal %s: %w", walName, err)
	}
	if dropped := fi.Size() - validLen; dropped > 0 {
		// Truncate the torn tail so new appends continue from a clean
		// record boundary.
		if err := fs.Truncate(walPath, validLen); err != nil {
			return nil, nil, nil, fmt.Errorf("store: truncating torn wal tail: %w", err)
		}
		st.recovery.DroppedBytes = dropped
	}
	wal, err := fs.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: reopening wal: %w", err)
	}
	st.wal = wal
	st.walRecords = int64(len(infos))
	st.walBytes = validLen
	st.recovery.SnapshotSeq = seq
	st.recovery.ReplayedRecords = len(infos)
	recs := make([]Record, len(infos))
	for i, ri := range infos {
		recs[i] = ri.Record
	}
	return st, snap, recs, nil
}

// Close releases the WAL handle. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the live durability counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		WALRecords:     s.walRecords,
		WALBytes:       s.walBytes,
		SnapshotSeq:    s.seq,
		Checkpoints:    s.checkpoints,
		LastCheckpoint: s.lastCheckpoint,
		Recovery:       s.recovery,
	}
	if s.poisoned != nil {
		st.Poisoned = true
		st.PoisonReason = s.poisoned.Error()
	}
	return st
}

// Poisoned returns the sticky disk fault that switched the store to
// read-only mode, or nil while the store is healthy.
func (s *Store) Poisoned() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.poisoned
}

// poisonLocked latches the first disk fault; later mutations are
// rejected with ErrPoisoned. Requires s.mu held.
func (s *Store) poisonLocked(op string, cause error) error {
	err := fmt.Errorf("store: %s: %w", op, cause)
	if s.poisoned == nil {
		s.poisoned = err
		mStorePoisoned.Set(1)
		mPoisonEvents.Inc()
	}
	return fmt.Errorf("%w; store now rejects mutations: %w", err, ErrPoisoned)
}

// rejectPoisonedLocked is the fast-fail for mutations after a fault.
func (s *Store) rejectPoisonedLocked() error {
	return fmt.Errorf("%w (cause: %v)", ErrPoisoned, s.poisoned)
}

// AppendInsert durably logs the insertion of g under id: the record is
// framed, checksummed, written, and fsync'd before AppendInsert returns
// nil. On error the mutation must not be applied in memory.
func (s *Store) AppendInsert(id int32, g *graph.Graph) error {
	return s.append(encodeRecord(Record{Op: OpInsert, ID: id, Graph: g}))
}

// AppendDelete durably logs the deletion of id.
func (s *Store) AppendDelete(id int32) error {
	return s.append(encodeRecord(Record{Op: OpDelete, ID: id}))
}

// encodeRecord frames one mutation as the WAL holds it: [u32 LE payload
// length][payload][u32 LE IEEE-CRC32 of payload], the payload being the
// op, the u32 LE id and, for an insert, the graph's binary encoding.
func encodeRecord(r Record) []byte {
	rec := make([]byte, 4, 72)
	rec = append(rec, r.Op)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(r.ID))
	if r.Op == OpInsert {
		rec = r.Graph.AppendBinary(rec)
	}
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-4))
	return binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec[4:]))
}

func (s *Store) append(rec []byte) error {
	appendStart := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.poisoned != nil {
		return s.rejectPoisonedLocked()
	}
	if s.wal == nil {
		return fmt.Errorf("store: no active WAL (store closed or never checkpointed)")
	}
	if _, err := s.wal.Write(rec); err != nil {
		s.truncateToAckedLocked()
		return s.poisonLocked("wal append", err)
	}
	fsyncStart := time.Now()
	if err := s.wal.Sync(); err != nil {
		// The failed fsync may have dropped any subset of the dirty pages;
		// nothing past the last acknowledged byte can be trusted.
		s.truncateToAckedLocked()
		return s.poisonLocked("wal fsync", err)
	}
	mWALFsyncSeconds.ObserveSince(fsyncStart)
	mWALAppendSeconds.ObserveSince(appendStart)
	mWALAppends.Inc()
	mWALBytes.Add(int64(len(rec)))
	s.walRecords++
	s.walBytes += int64(len(rec))
	return nil
}

// truncateToAckedLocked best-effort cuts the WAL back to the last
// acknowledged record boundary after a failed append, so a torn frame
// never sits between the acked prefix and whatever a still-running
// process might do next. Recovery tolerates a torn tail anyway; this
// just keeps the on-disk state tidy when the disk still answers.
// Requires s.mu held.
func (s *Store) truncateToAckedLocked() {
	if s.wal != nil {
		_ = s.wal.Truncate(s.walBytes)
	}
}

// WriteSnapshot atomically installs snap as the store's durable state
// and starts a fresh, empty WAL. Ordering: index side file, then the
// snapshot that names it (each temp, fsync, rename), then the paired
// empty WAL, then the MANIFEST swing — a crash at any point leaves the
// previous set or the new set intact, never a mix, and never a snapshot
// whose index is missing. Old files are removed best-effort afterwards.
func (s *Store) WriteSnapshot(snap *Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.poisoned != nil {
		return s.rejectPoisonedLocked()
	}
	snapStart := time.Now()
	seq := s.seq + 1
	snapName := fmt.Sprintf("snap-%06d.pissnap", seq)
	walName := fmt.Sprintf("wal-%06d", seq)
	// The index lives in its own side file, named by the snapshot header,
	// so OpenWith can memory-map it or decode it onto the heap as each
	// open chooses.
	idxFile := idxFileName(seq)
	if err := fsys.WriteFileAtomic(s.fsOrOS(), s.dir, idxFile, snap.Index.Save); err != nil {
		return s.poisonLocked("writing index file", err)
	}
	var snapBytes int64
	if err := fsys.WriteFileAtomic(s.fsOrOS(), s.dir, snapName, func(w io.Writer) error {
		cw := &countingWriter{w: w}
		err := writeSnapshot(cw, snap, seq, idxFile)
		snapBytes = cw.n
		return err
	}); err != nil {
		return s.poisonLocked("writing snapshot", err)
	}
	wal, err := s.fsOrOS().OpenFile(filepath.Join(s.dir, walName), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return s.poisonLocked("creating wal", err)
	}
	if err := wal.Sync(); err != nil {
		wal.Close()
		return s.poisonLocked("syncing wal", err)
	}
	if err := fsys.WriteFileAtomic(s.fsOrOS(), s.dir, manifestName, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s\nsnapshot %s\nwal %s\n", manifestMagic, snapName, walName)
		return err
	}); err != nil {
		wal.Close()
		return s.poisonLocked("writing manifest", err)
	}
	if s.wal != nil {
		s.wal.Close()
	}
	oldSeq := s.seq
	s.wal = wal
	s.seq = seq
	s.walRecords = 0
	s.walBytes = 0
	s.checkpoints++
	s.lastCheckpoint = time.Now()
	mSnapshots.Inc()
	mSnapshotSeconds.ObserveSince(snapStart)
	mSnapshotBytes.Add(snapBytes)
	mSnapshotLastBytes.Set(float64(snapBytes))
	if oldSeq > 0 {
		s.fsOrOS().Remove(filepath.Join(s.dir, fmt.Sprintf("snap-%06d.pissnap", oldSeq)))
		s.fsOrOS().Remove(filepath.Join(s.dir, fmt.Sprintf("wal-%06d", oldSeq)))
		// A live mapping of the old index side file survives the unlink
		// (the mapping pins the inode); the next open uses the new file.
		s.fsOrOS().Remove(filepath.Join(s.dir, idxFileName(oldSeq)))
	}
	return nil
}

// idxFileName names snapshot seq's index side file.
func idxFileName(seq uint64) string { return fmt.Sprintf("idx-%06d.pisidx3", seq) }

// fsOrOS guards against zero-value Stores constructed in tests.
func (s *Store) fsOrOS() FS {
	if s.fs == nil {
		return OSFS
	}
	return s.fs
}

// readManifest parses the MANIFEST, returning the snapshot and WAL names.
func readManifest(fs FS, dir string) (snapName, walName string, err error) {
	data, err := fs.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return "", "", fmt.Errorf("store: %s is not a segment store: %w", dir, err)
	}
	snapName, walName, err = ParseManifest(data)
	if err != nil {
		return "", "", fmt.Errorf("store: %s: %w", dir, err)
	}
	return snapName, walName, nil
}

// ParseManifest decodes a MANIFEST payload into the snapshot and WAL
// file names it points at. Exported for the replica-transfer path, which
// validates a manifest shipped over the wire before committing it.
func ParseManifest(data []byte) (snapName, walName string, err error) {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 || lines[0] != manifestMagic {
		return "", "", fmt.Errorf("malformed MANIFEST")
	}
	for _, ln := range lines[1:] {
		key, val, ok := strings.Cut(ln, " ")
		if !ok || strings.ContainsAny(val, "/\\") {
			return "", "", fmt.Errorf("malformed MANIFEST line %q", ln)
		}
		switch key {
		case "snapshot":
			snapName = val
		case "wal":
			walName = val
		}
	}
	if snapName == "" || walName == "" {
		return "", "", fmt.Errorf("MANIFEST names no snapshot/wal pair")
	}
	for _, name := range []string{snapName, walName} {
		if err := checkFileName(name); err != nil {
			return "", "", fmt.Errorf("MANIFEST: %w", err)
		}
	}
	return snapName, walName, nil
}

// snapChunk bounds one snapshot section payload. Graph sets larger than
// this span several sections, each with its own checksum, so a
// many-gigabyte database stays well under the per-section cap and a
// checkpoint written is always a checkpoint loadable. The section buffer
// is reused section to section, so it bounds the writer's memory too: at
// 64 MiB, growing the buffer by append allocated some 300 MB per
// checkpoint of a 500k-graph shard.
const snapChunk = 4 << 20

// writeSnapshot serializes snap: magic, then a header section followed
// by base graphs / tombstones / delta graphs, each spread over one or
// more CRC-checksummed sections (the header carries the counts, so the
// reader knows where each run ends). idxFile names the index side file
// written next to the snapshot.
func writeSnapshot(w io.Writer, snap *Snapshot, seq uint64, idxFile string) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return err
	}
	sw := binio.NewSectionWriter(bw)

	sw.Begin()
	sw.U64(seq)
	sw.U32(uint32(snap.NextID))
	sw.Uvarint(uint64(len(snap.Base)))
	sw.Uvarint(uint64(len(snap.Tombs)))
	sw.Uvarint(uint64(len(snap.Delta)))
	// Byte length of an index embedded after the base graphs: always 0,
	// the index is in idxFile. Snapshots that embedded one are rejected
	// by the reader.
	sw.U64(0)
	sw.Uvarint(uint64(len(idxFile)))
	sw.Bytes([]byte(idxFile))
	sw.U64(snap.MutSeq)
	if err := sw.Flush(); err != nil {
		return err
	}

	writeGraphs := func(graphs []*graph.Graph, ids []int32) error {
		sw.Begin()
		var buf []byte
		for i, g := range graphs {
			sw.U32(uint32(ids[i]))
			buf = g.AppendBinary(buf[:0])
			sw.Uvarint(uint64(len(buf)))
			sw.Bytes(buf)
			if sw.Len() >= snapChunk && i+1 < len(graphs) {
				if err := sw.Flush(); err != nil {
					return err
				}
				sw.Begin()
			}
		}
		return sw.Flush()
	}
	if err := writeGraphs(snap.Base, snap.BaseIDs); err != nil {
		return err
	}

	sw.Begin()
	sw.I32Slab(snap.Tombs)
	if err := sw.Flush(); err != nil {
		return err
	}

	if err := writeGraphs(snap.Delta, snap.DeltaIDs); err != nil {
		return err
	}
	return bw.Flush()
}

// loadSnapshot reads and verifies one snapshot file and its index side
// file. mapped asks for the side file to be memory-mapped rather than
// heap-decoded; it must only be set when fs is the real filesystem.
func loadSnapshot(fs FS, path string, metric distance.Metric, mapped bool) (*Snapshot, uint64, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if !bytes.HasPrefix(data, []byte(snapMagic)) {
		return nil, 0, fmt.Errorf("not a PIS snapshot (magic %q)", data[:min(len(data), len(snapMagic))])
	}
	// Over a bytes.Reader, binio refuses a section length the file cannot
	// hold before allocating it.
	sr := binio.NewSectionReader(bytes.NewReader(data[len(snapMagic):]))
	if err := sr.Next(); err != nil {
		return nil, 0, fmt.Errorf("header: %w", err)
	}
	seq := sr.U64()
	snap := &Snapshot{NextID: int32(sr.U32())}
	nBase := int(sr.Uvarint())
	nTombs := int(sr.Uvarint())
	nDelta := int(sr.Uvarint())
	idxLen := sr.U64()
	idxFile := ""
	if sr.Remaining() > 0 { // absent in snapshots written before side files
		idxFile = string(sr.Bytes(int(sr.Uvarint())))
	}
	if sr.Remaining() > 0 { // absent before the mutation sequence existed
		snap.MutSeq = sr.U64()
	}
	if err := sr.Err(); err != nil {
		return nil, 0, fmt.Errorf("header: %w", err)
	}
	if idxLen > 0 || idxFile == "" {
		return nil, 0, fmt.Errorf("header: snapshot embeds an index; rebuild the store from its source database (this version reads the index only from an idx-*.pisidx3 side file)")
	}
	if err := checkFileName(idxFile); err != nil {
		return nil, 0, fmt.Errorf("header: index %w", err)
	}

	// The slices grow as graphs decode instead of being sized by the
	// header's count, so a corrupt count fails at the first missing graph
	// having allocated no more than the file holds.
	readGraphs := func(n int, what string) (graphs []*graph.Graph, ids []int32, err error) {
		if err := sr.Next(); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", what, err)
		}
		for i := 0; i < n; i++ {
			if sr.Remaining() == 0 { // chunk boundary
				if err := sr.Next(); err != nil {
					return nil, nil, fmt.Errorf("%s chunk after graph %d: %w", what, i, err)
				}
			}
			id := int32(sr.U32())
			enc := sr.Bytes(int(sr.Uvarint()))
			if sr.Err() != nil {
				return nil, nil, fmt.Errorf("%s graph %d: %w", what, i, sr.Err())
			}
			g, rest, err := graph.DecodeBinary(enc)
			if err != nil || len(rest) != 0 {
				return nil, nil, fmt.Errorf("%s graph %d: malformed encoding", what, i)
			}
			graphs = append(graphs, g)
			ids = append(ids, id)
		}
		return graphs, ids, nil
	}
	if snap.Base, snap.BaseIDs, err = readGraphs(nBase, "base"); err != nil {
		return nil, 0, err
	}

	ip := filepath.Join(filepath.Dir(path), idxFile)
	if mapped {
		snap.Index, err = index.OpenMapped(ip, metric)
	} else {
		var data []byte
		if data, err = fs.ReadFile(ip); err == nil {
			snap.Index, err = index.LoadBytes(data, metric)
		}
	}
	if err != nil {
		return nil, 0, fmt.Errorf("index file %s: %w", idxFile, err)
	}

	if err := sr.Next(); err != nil {
		return nil, 0, fmt.Errorf("tombstones: %w", err)
	}
	snap.Tombs = sr.I32Slab(nTombs)
	if err := sr.Err(); err != nil {
		return nil, 0, fmt.Errorf("tombstones: %w", err)
	}

	if snap.Delta, snap.DeltaIDs, err = readGraphs(nDelta, "delta"); err != nil {
		return nil, 0, err
	}
	return snap, seq, nil
}

// ScanWAL decodes the valid record prefix of a WAL file, returning the
// records with their framing offsets and the byte length of the valid
// prefix. A torn or checksum-failing record ends the scan without error:
// everything from its start offset on is untrusted tail.
func ScanWAL(path string) ([]RecordInfo, int64, error) {
	return scanWAL(OSFS, path)
}

func scanWAL(fs FS, path string) ([]RecordInfo, int64, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	out, valid := scanRecords(data)
	return out, valid, nil
}

// scanRecords decodes the valid record prefix of a WAL image and returns
// the records with the byte length of that prefix.
func scanRecords(data []byte) ([]RecordInfo, int64) {
	var out []RecordInfo
	off := int64(0)
	for {
		rec, end, ok := nextRecord(data, off)
		if !ok {
			return out, off
		}
		rec.Start = off
		rec.End = end
		out = append(out, rec)
		off = end
	}
}

// nextRecord decodes one framed record at off; ok=false marks the end of
// the valid prefix (clean EOF, torn frame, bad checksum, or undecodable
// payload alike — the distinction is the caller's DroppedBytes count).
func nextRecord(data []byte, off int64) (ri RecordInfo, end int64, ok bool) {
	rest := data[off:]
	if len(rest) < 8 {
		return ri, 0, false
	}
	n := binary.LittleEndian.Uint32(rest)
	if n == 0 || uint64(n) > uint64(len(rest))-8 {
		return ri, 0, false
	}
	payload := rest[4 : 4+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4+n:]) {
		return ri, 0, false
	}
	switch payload[0] {
	case OpInsert:
		if len(payload) < 5 {
			return ri, 0, false
		}
		// Only the encoding AppendBinary writes is a record: the graph
		// must re-encode to the logged bytes.
		g, tail, err := graph.DecodeBinary(payload[5:])
		if err != nil || len(tail) != 0 || !bytes.Equal(g.AppendBinary(nil), payload[5:]) {
			return ri, 0, false
		}
		ri.Op = OpInsert
		ri.ID = int32(binary.LittleEndian.Uint32(payload[1:]))
		ri.Graph = g
	case OpDelete:
		if len(payload) != 5 {
			return ri, 0, false
		}
		ri.Op = OpDelete
		ri.ID = int32(binary.LittleEndian.Uint32(payload[1:]))
	default:
		return ri, 0, false
	}
	return ri, off + int64(n) + 8, true
}

// --- root manifest: the shard layout above the per-segment stores ---

const (
	rootManifestMagic = "pis-store v1"
)

// ShardDir names shard i's segment store directory under root.
func ShardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

// RootExists reports whether root holds a database store: a MANIFEST
// that leads with the root magic, not merely a file of that name.
func RootExists(root string) bool {
	data, err := os.ReadFile(filepath.Join(root, manifestName))
	if err != nil {
		return false
	}
	line, _, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
	return line == rootManifestMagic
}

// WriteRootManifest records the shard count for a database rooted at
// root, creating the directory if needed.
func WriteRootManifest(root string, shards int) error {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return fsys.WriteFileAtomic(OSFS, root, manifestName, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s\nshards %d\n", rootManifestMagic, shards)
		return err
	})
}

// ReadRootManifest returns the shard count recorded at root. The count
// is bounded by what is on disk — the last shard directory it names must
// exist — so a corrupt MANIFEST cannot make the caller size anything by
// a number no directory backs.
func ReadRootManifest(root string) (shards int, err error) {
	data, err := os.ReadFile(filepath.Join(root, manifestName))
	if err != nil {
		return 0, fmt.Errorf("store: %s is not a database store: %w", root, err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 || lines[0] != rootManifestMagic {
		return 0, fmt.Errorf("store: %s: malformed root MANIFEST", root)
	}
	for _, ln := range lines[1:] {
		if val, ok := strings.CutPrefix(ln, "shards "); ok {
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return 0, fmt.Errorf("store: %s: bad shard count %q", root, val)
			}
			if _, err := os.Stat(ShardDir(root, n-1)); err != nil {
				return 0, fmt.Errorf("store: %s: root MANIFEST names %d shards: %w", root, n, err)
			}
			return n, nil
		}
	}
	return 0, fmt.Errorf("store: %s: root MANIFEST names no shard count", root)
}
