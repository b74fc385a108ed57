package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pis/internal/binio"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
)

// testState builds a tiny indexed graph set for snapshot payloads.
func testState(t testing.TB, n int, seed int64) ([]*graph.Graph, *index.Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*graph.Graph, n)
	for i := range graphs {
		graphs[i] = randomGraph(rng)
	}
	feats, err := mining.Mine(graphs, mining.Options{MaxEdges: 3, MinEdges: 2, MinSupportFraction: 0.1, SampleSize: n})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(graphs, feats, index.Options{Metric: distance.EdgeMutation{}})
	if err != nil {
		t.Fatal(err)
	}
	return graphs, idx
}

func randomGraph(rng *rand.Rand) *graph.Graph {
	n := 3 + rng.Intn(5)
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VLabel(rng.Intn(3)))
	}
	for v := int32(1); v < int32(n); v++ {
		b.AddEdge(rng.Int31n(v), v, graph.ELabel(rng.Intn(2))) // spanning tree: connected
	}
	return b.MustBuild()
}

func seqIDs(start int32, n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = start + int32(i)
	}
	return ids
}

// createWithSnapshot builds a store whose initial snapshot holds graphs.
func createWithSnapshot(t *testing.T, dir string, graphs []*graph.Graph, idx *index.Index) *Store {
	t.Helper()
	st, err := CreateFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{
		NextID:  int32(len(graphs)),
		Base:    graphs,
		BaseIDs: seqIDs(0, len(graphs)),
		Index:   idx,
	}
	if err := st.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	graphs, idx := testState(t, 12, 1)
	st := createWithSnapshot(t, dir, graphs, idx)

	rng := rand.New(rand.NewSource(2))
	ins := randomGraph(rng)
	if err := st.AppendInsert(12, ins); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDelete(3); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.WALRecords != 2 || s.SnapshotSeq != 1 || s.Checkpoints != 1 {
		t.Fatalf("stats = %+v, want 2 wal records, seq 1", s)
	}
	st.Close()

	st2, snap, recs, err := OpenFS(dir, distance.EdgeMutation{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(snap.Base) != 12 || snap.NextID != 12 || len(snap.Delta) != 0 || len(snap.Tombs) != 0 {
		t.Fatalf("snapshot shape: base=%d nextID=%d", len(snap.Base), snap.NextID)
	}
	if snap.Index.Fingerprint() != graph.Fingerprint(snap.Base) {
		t.Fatal("recovered index fingerprint does not match recovered graphs")
	}
	if len(recs) != 2 || recs[0].Op != OpInsert || recs[0].ID != 12 || recs[1].Op != OpDelete || recs[1].ID != 3 {
		t.Fatalf("recovered records %+v", recs)
	}
	var a, b bytes.Buffer
	graph.WriteDB(&a, []*graph.Graph{ins})
	graph.WriteDB(&b, []*graph.Graph{recs[0].Graph})
	if a.String() != b.String() {
		t.Fatal("inserted graph did not round-trip through the WAL")
	}
	if s := st2.Stats(); s.Recovery.ReplayedRecords != 2 || s.Recovery.DroppedBytes != 0 {
		t.Fatalf("recovery stats %+v", s.Recovery)
	}

	// The reopened store accepts appends immediately.
	if err := st2.AppendDelete(5); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCheckpointResetsWAL(t *testing.T) {
	dir := t.TempDir()
	graphs, idx := testState(t, 10, 3)
	st := createWithSnapshot(t, dir, graphs, idx)
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng)
	if err := st.AppendInsert(10, g); err != nil {
		t.Fatal(err)
	}
	// Checkpoint: the insert moves into the snapshot delta; the WAL resets.
	snap := &Snapshot{
		NextID:   11,
		Base:     graphs,
		BaseIDs:  seqIDs(0, len(graphs)),
		Index:    idx,
		Delta:    []*graph.Graph{g},
		DeltaIDs: []int32{10},
	}
	if err := st.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.WALRecords != 0 || s.SnapshotSeq != 2 {
		t.Fatalf("after checkpoint: %+v", s)
	}
	st.Close()

	_, snap2, recs, err := OpenFS(dir, distance.EdgeMutation{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("replayed %d records from a fresh WAL", len(recs))
	}
	if len(snap2.Delta) != 1 || snap2.DeltaIDs[0] != 10 || snap2.NextID != 11 {
		t.Fatalf("snapshot delta not preserved: %+v", snap2.DeltaIDs)
	}
	// The old snapshot/WAL pair was cleaned up.
	if _, err := os.Stat(filepath.Join(dir, "snap-000001.pissnap")); !os.IsNotExist(err) {
		t.Error("old snapshot not removed")
	}
}

// TestStoreTornAndCorruptTail: truncate or flip bytes at and inside every
// record boundary; recovery must return exactly the records before the
// damage and truncate the log so appends resume cleanly.
func TestStoreTornAndCorruptTail(t *testing.T) {
	dir := t.TempDir()
	graphs, idx := testState(t, 8, 5)
	st := createWithSnapshot(t, dir, graphs, idx)
	rng := rand.New(rand.NewSource(6))
	const nRecs = 6
	for i := 0; i < nRecs; i++ {
		if i%2 == 0 {
			if err := st.AppendInsert(int32(8+i), randomGraph(rng)); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := st.AppendDelete(int32(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Close()
	walPath := filepath.Join(dir, "wal-000001")
	clean, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	infos, validLen, err := ScanWAL(walPath)
	if err != nil || len(infos) != nRecs || validLen != int64(len(clean)) {
		t.Fatalf("ScanWAL: %d records, %d/%d bytes, err %v", len(infos), validLen, len(clean), err)
	}

	damage := func(name string, mutate func([]byte) []byte, wantRecs int) {
		t.Helper()
		cdir := t.TempDir()
		copyDir(t, dir, cdir)
		if err := os.WriteFile(filepath.Join(cdir, "wal-000001"), mutate(append([]byte(nil), clean...)), 0o644); err != nil {
			t.Fatal(err)
		}
		st2, _, recs, err := OpenFS(cdir, distance.EdgeMutation{}, nil)
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", name, err)
		}
		defer st2.Close()
		if len(recs) != wantRecs {
			t.Fatalf("%s: recovered %d records, want %d", name, len(recs), wantRecs)
		}
		for i, r := range recs {
			if r.ID != infos[i].ID || r.Op != infos[i].Op {
				t.Fatalf("%s: record %d diverged", name, i)
			}
		}
		// Appends continue from a clean boundary after tail truncation.
		if err := st2.AppendDelete(2); err != nil {
			t.Fatalf("%s: append after recovery: %v", name, err)
		}
		again, _, err := ScanWAL(filepath.Join(cdir, "wal-000001"))
		if err != nil || len(again) != wantRecs+1 {
			t.Fatalf("%s: post-recovery wal has %d records, want %d", name, len(again), wantRecs+1)
		}
	}

	for i, ri := range infos {
		// Truncation exactly at the record boundary: all i+1 records survive.
		damage("truncate-at-end", func(b []byte) []byte { return b[:ri.End] }, i+1)
		// Truncation mid-record: record i is torn, prefix survives.
		mid := ri.Start + (ri.End-ri.Start)/2
		damage("truncate-mid", func(b []byte) []byte { return b[:mid] }, i)
		// Bit flip mid-record: checksum kills record i and the tail.
		damage("flip-mid", func(b []byte) []byte { b[mid] ^= 0x40; return b }, i)
		// Bit flip in the length prefix.
		damage("flip-len", func(b []byte) []byte { b[ri.Start] ^= 0x10; return b }, i)
	}
	// Garbage appended after the last record is dropped.
	damage("garbage-tail", func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe) }, nRecs)
}

// TestSnapshotIndexFileCorruption: the snapshot's index lives in the
// idx-<seq>.pisidx3 side file. Damage there — a bit flip inside each
// metadata section and at the edges and middle of the slab, truncation at
// every section boundary and inside the slab, the file missing — must
// fail Open, naming the file and the damaged section.
func TestSnapshotIndexFileCorruption(t *testing.T) {
	dir := t.TempDir()
	graphs, idx := testState(t, 12, 7)
	createWithSnapshot(t, dir, graphs, idx).Close()
	const idxName = "idx-000001.pisidx3"
	clean, err := os.ReadFile(filepath.Join(dir, idxName))
	if err != nil {
		t.Fatalf("snapshot of a heap index wrote no side file: %v", err)
	}

	// Walk the image's framing: 8-byte magic, then two
	// [u32 length][payload][u32 CRC] sections (header, directory); the
	// header payload ends with slab offset and length.
	var sections [][2]int // payload [start, end)
	for off := 8; len(sections) < 2; {
		end := off + 4 + int(binary.LittleEndian.Uint32(clean[off:]))
		sections = append(sections, [2]int{off + 4, end})
		off = end + 4
	}
	slabOff := int(binary.LittleEndian.Uint64(clean[sections[0][1]-16:]))
	if slabOff <= sections[1][1] || slabOff >= len(clean) {
		t.Fatalf("slab offset %d outside the %d-byte image (sections %v)", slabOff, len(clean), sections)
	}

	expectFail := func(name string, damaged []byte, wantSub string) {
		t.Helper()
		cdir := t.TempDir()
		copyDir(t, dir, cdir)
		if damaged == nil {
			err = os.Remove(filepath.Join(cdir, idxName))
		} else {
			err = os.WriteFile(filepath.Join(cdir, idxName), damaged, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		st, _, _, err := OpenFS(cdir, distance.EdgeMutation{}, nil)
		if err == nil {
			st.Close()
			t.Fatalf("%s: damage not detected", name)
		}
		if !strings.Contains(err.Error(), "index file "+idxName) || !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q does not name the file and %q", name, err, wantSub)
		}
	}
	flip := func(pos int) []byte {
		d := append([]byte(nil), clean...)
		d[pos] ^= 0x40
		return d
	}

	for i, want := range []string{"image header", "image directory"} {
		expectFail(want+" bit flip", flip((sections[i][0]+sections[i][1])/2), want)
	}
	for _, pos := range []int{slabOff, (slabOff + len(clean)) / 2, len(clean) - 1} {
		expectFail("slab bit flip", flip(pos), "block: checksum mismatch")
	}
	expectFail("truncated after the header", clean[:sections[0][1]+4], "image directory")
	expectFail("truncated mid-directory", clean[:(sections[1][0]+sections[1][1])/2], "image directory")
	expectFail("truncated after the directory", clean[:sections[1][1]+4], "image slab: truncated")
	expectFail("truncated mid-padding", clean[:(sections[1][1]+4+slabOff)/2], "image slab: truncated")
	expectFail("truncated before the slab", clean[:slabOff], "image slab: truncated")
	expectFail("truncated mid-slab", clean[:(slabOff+len(clean))/2], "image slab: truncated")
	expectFail("empty file", []byte{}, "not a PISIDX3 image")
	expectFail("file missing", nil, "")
}

// TestOpenRejectsEmbeddedIndexSnapshot: snapshots used to carry the index
// as a chunk run after the base graphs, announced by a non-zero byte
// length in the header and no side-file name. That layout is no longer
// read; Open must say so instead of misparsing the chunks as tombstones.
func TestOpenRejectsEmbeddedIndexSnapshot(t *testing.T) {
	dir := t.TempDir()
	graphs, idx := testState(t, 6, 9)
	createWithSnapshot(t, dir, graphs, idx).Close()

	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	sw := binio.NewSectionWriter(&buf)
	sw.Begin()
	sw.U64(1)       // seq
	sw.U32(6)       // next id
	sw.Uvarint(6)   // base graphs
	sw.Uvarint(0)   // tombstones
	sw.Uvarint(0)   // delta graphs
	sw.U64(1 << 10) // embedded index bytes; the header ends here
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-000001.pissnap"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := OpenFS(dir, distance.EdgeMutation{}, nil)
	if err == nil || !strings.Contains(err.Error(), "embeds an index; rebuild") {
		t.Fatalf("Open of an embedded-index snapshot: %v", err)
	}
}

// TestStoreRefusesNonPlainFileNames: a MANIFEST, shipped by a peer or found
// on disk, may name its snapshot or WAL ".", ".." or "MANIFEST". Stat
// finds "." and ".." (the store directory and its parent), so without a
// name check Commit would install such a manifest and leave a store that
// never opens. Commit refuses each name and writes no MANIFEST, and a
// snapshot whose header names ".." as its index side file fails Open
// naming the header.
func TestStoreRefusesNonPlainFileNames(t *testing.T) {
	for _, bad := range []string{".", "..", manifestName} {
		for _, manifest := range []string{
			fmt.Sprintf("%s\nsnapshot %s\nwal wal-000001\n", manifestMagic, bad),
			fmt.Sprintf("%s\nsnapshot snap-000001.pissnap\nwal %s\n", manifestMagic, bad),
		} {
			dir := filepath.Join(t.TempDir(), "replica")
			in, err := NewInstall(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"snap-000001.pissnap", "wal-000001"} {
				f, err := in.CreateFile(name)
				if err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			if err := in.Commit([]byte(manifest)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
				t.Fatalf("Commit of %q: %v", manifest, err)
			}
			if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
				t.Fatalf("Commit of %q wrote a MANIFEST (%v)", manifest, err)
			}
		}
	}

	dir := t.TempDir()
	graphs, idx := testState(t, 6, 9)
	createWithSnapshot(t, dir, graphs, idx).Close()
	var buf bytes.Buffer
	snap := &Snapshot{NextID: int32(len(graphs)), Base: graphs, BaseIDs: seqIDs(0, len(graphs))}
	if err := writeSnapshot(&buf, snap, 1, ".."); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-000001.pissnap"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, _, err := OpenFS(dir, distance.EdgeMutation{}, nil)
	if err == nil {
		st.Close()
		t.Fatal("Open accepted a snapshot whose index file is \"..\"")
	}
	if !strings.Contains(err.Error(), `header: index file name ".."`) {
		t.Fatalf("error %q does not name the header", err)
	}
}

func TestRootManifest(t *testing.T) {
	dir := t.TempDir()
	root := filepath.Join(dir, "db")
	if RootExists(root) {
		t.Fatal("empty dir reported as store")
	}
	if err := WriteRootManifest(root, 4); err != nil {
		t.Fatal(err)
	}
	if ShardDir(root, 2) != filepath.Join(root, "shard-002") {
		t.Fatalf("ShardDir = %q", ShardDir(root, 2))
	}
	// The count is bounded by the directories on disk: a manifest naming
	// shards that do not exist is refused before anyone sizes a slice by it.
	if n, err := ReadRootManifest(root); err == nil {
		t.Fatalf("ReadRootManifest accepted %d shards with no shard directory", n)
	}
	for i := 0; i < 4; i++ {
		if err := os.MkdirAll(ShardDir(root, i), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	n, err := ReadRootManifest(root)
	if err != nil || n != 4 {
		t.Fatalf("ReadRootManifest = %d, %v", n, err)
	}
	if err := WriteRootManifest(root, 2000000000); err != nil {
		t.Fatal(err)
	}
	if n, err := ReadRootManifest(root); err == nil {
		t.Fatalf("ReadRootManifest accepted %d shards over 4 directories", n)
	}
}

// FuzzReadRootManifest feeds arbitrary bytes as the root MANIFEST of a
// directory holding three shard directories: the reader returns an
// error, or a count that a directory on disk backs.
func FuzzReadRootManifest(f *testing.F) {
	f.Add([]byte(rootManifestMagic + "\nshards 3\n"))
	f.Add([]byte(rootManifestMagic + "\nshards 2000000000\n"))
	f.Add([]byte(rootManifestMagic + "\nshards 0\n"))
	f.Add([]byte(rootManifestMagic + "\nshards -1\nshards 2\n"))
	f.Add([]byte("shards 1\n"))
	f.Add([]byte{})
	root := f.TempDir()
	const onDisk = 3
	for i := 0; i < onDisk; i++ {
		if err := os.MkdirAll(ShardDir(root, i), 0o755); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(root, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := ReadRootManifest(root)
		if err == nil && (n < 1 || n > onDisk) {
			t.Fatalf("ReadRootManifest(%q) = %d with %d shard directories on disk", data, n, onDisk)
		}
		if err == nil && !RootExists(root) {
			t.Fatalf("ReadRootManifest(%q) = %d, but RootExists says no store", data, n)
		}
	})
}

func TestOpenRejectsMissingStore(t *testing.T) {
	if _, _, _, err := OpenFS(t.TempDir(), distance.EdgeMutation{}, nil); err == nil {
		t.Fatal("Open of an empty directory succeeded")
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			sub := filepath.Join(dst, e.Name())
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			copyDir(t, filepath.Join(src, e.Name()), sub)
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
