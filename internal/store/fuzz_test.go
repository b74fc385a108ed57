package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pis/internal/binio"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
)

// A snapshot read may allocate allocPerByte per input byte beyond
// readOverhead, plus what loading its index side file costs — the bound
// the SDF reader's fuzz target holds, for the same reason: a count in the
// input must not size an allocation the input cannot back.
const (
	allocPerByte = 64
	readOverhead = 256 << 10
)

// fuzzStore writes a real store into dir — indexed base graphs, a
// tombstone, a delta graph, then WAL inserts and deletes — and returns
// its snapshot and WAL bytes.
func fuzzStore(t testing.TB, dir string) (snap, wal []byte) {
	graphs, idx := testState(t, 8, 11)
	st, err := CreateFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	if err := st.WriteSnapshot(&Snapshot{
		NextID: 10, Base: graphs, BaseIDs: seqIDs(0, len(graphs)), Index: idx,
		Tombs: []int32{3}, Delta: []*graph.Graph{randomGraph(rng)}, DeltaIDs: []int32{9},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendInsert(10, randomGraph(rng)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDelete(4); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if snap, err = os.ReadFile(filepath.Join(dir, "snap-000001.pissnap")); err != nil {
		t.Fatal(err)
	}
	if wal, err = os.ReadFile(filepath.Join(dir, "wal-000001")); err != nil {
		t.Fatal(err)
	}
	return snap, wal
}

// countBomb is a snapshot whose CRC-valid header declares the given
// counts over the store's side file, followed by one empty section.
func countBomb(nBase, nTombs, nDelta uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	sw := binio.NewSectionWriter(&buf)
	sw.Begin()
	sw.U64(1) // seq
	sw.U32(0) // next id
	sw.Uvarint(nBase)
	sw.Uvarint(nTombs)
	sw.Uvarint(nDelta)
	sw.U64(0) // no embedded index
	sw.Uvarint(uint64(len(idxFileName(1))))
	sw.Bytes([]byte(idxFileName(1)))
	sw.U64(0) // mutation sequence
	sw.Flush()
	sw.Begin()
	sw.Flush()
	return buf.Bytes()
}

// sideFileLoad measures what loading dir's index side file allocates, the
// part of a snapshot read its own bytes do not account for.
func sideFileLoad(t testing.TB, dir string) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	data, err := os.ReadFile(filepath.Join(dir, idxFileName(1)))
	if err == nil {
		_, err = index.LoadBytes(data, distance.EdgeMutation{})
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// loadBounded reads data as a snapshot file in dir and fails unless the
// read allocated within the bound above and returned an error or no more
// graphs and tombstones than data has bytes. It returns the read's error.
func loadBounded(t *testing.T, dir string, data []byte, sideLoad uint64) error {
	t.Helper()
	path := filepath.Join(dir, "fuzz.pissnap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap, _, err := loadSnapshot(OSFS, path, distance.EdgeMutation{})
	runtime.ReadMemStats(&after)
	if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(allocPerByte*len(data)+readOverhead)+sideLoad; alloc > bound {
		t.Fatalf("reading a %d-byte snapshot allocated %d, bound %d", len(data), alloc, bound)
	}
	if err == nil && len(snap.Base)+len(snap.Delta)+len(snap.Tombs) > len(data) {
		t.Fatalf("a %d-byte snapshot decoded to %d base graphs, %d delta graphs and %d tombstones",
			len(data), len(snap.Base), len(snap.Delta), len(snap.Tombs))
	}
	return err
}

// TestSnapshotCountBombBounded: a 77-byte snapshot whose header declares
// 100 million base graphs, and one declaring 2^62 tombstones, are errors
// that allocate no more than their bytes and the side file account for.
// Sized by the declared count, the first once allocated 1.1 GiB before
// failing and the second panicked in makeslice.
func TestSnapshotCountBombBounded(t *testing.T) {
	dir := t.TempDir()
	fuzzStore(t, dir)
	sideLoad := sideFileLoad(t, dir)
	base := countBomb(100_000_000, 0, 0)
	if len(base) != 77 {
		t.Fatalf("base-count bomb is %d bytes, want 77", len(base))
	}
	if err := loadBounded(t, dir, base, sideLoad); err == nil {
		t.Error("a snapshot declaring 100 million base graphs and holding none loaded")
	}
	// The base section is empty; so is the tombstone section after it
	// (zero length, and the CRC32 of nothing is 0).
	tombs := append(countBomb(0, 1<<62, 0), make([]byte, 8)...)
	if err := loadBounded(t, dir, tombs, sideLoad); err == nil {
		t.Error("a snapshot declaring 2^62 tombstones and holding none loaded")
	}
}

// FuzzSnapshot feeds arbitrary bytes as a snapshot file beside a valid
// index side file: an error, or a snapshot no larger than the input, and
// never an allocation the input and the side file cannot account for.
func FuzzSnapshot(f *testing.F) {
	dir := f.TempDir()
	snap, _ := fuzzStore(f, dir)
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Add(countBomb(100_000_000, 0, 0))
	f.Add(countBomb(0, 1<<62, 0))
	f.Add(countBomb(0, 0, 1<<40))
	sideLoad := sideFileLoad(f, dir)
	f.Fuzz(func(t *testing.T, data []byte) {
		loadBounded(t, dir, data, sideLoad)
	})
}

// FuzzWAL feeds arbitrary bytes as a WAL: the scan never panics, the
// records it returns tile the valid prefix from offset 0, and each one
// re-encodes to exactly its bytes in the log.
func FuzzWAL(f *testing.F) {
	_, wal := fuzzStore(f, f.TempDir())
	f.Add(wal)
	f.Add(wal[:len(wal)-3])
	f.Add([]byte{})
	// An insert whose graph spells its vertex count as an overlong varint:
	// it decodes, but is not what the store writes.
	payload := append([]byte{OpInsert, 7, 0, 0, 0}, 0, 0x81, 0x00, 0, 0)
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	rec = append(rec, payload...)
	f.Add(binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload)))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := scanRecords(data)
		off := int64(0)
		for i, r := range recs {
			if r.Start != off || r.End > int64(len(data)) {
				t.Fatalf("record %d spans [%d, %d) after offset %d of %d bytes", i, r.Start, r.End, off, len(data))
			}
			if enc := encodeRecord(r.Record); !bytes.Equal(enc, data[r.Start:r.End]) {
				t.Fatalf("record %d re-encodes to %x, the log holds %x", i, enc, data[r.Start:r.End])
			}
			off = r.End
		}
		if valid != off {
			t.Fatalf("valid prefix %d bytes, the records end at %d", valid, off)
		}
	})
}
