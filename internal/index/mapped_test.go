package index

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pis/internal/distance"
	"pis/internal/fsys"
	"pis/internal/graph"
)

// queriesEqual asserts that every range query over a few query graphs
// answers identically (ids and distances) on a and b.
func queriesEqual(t *testing.T, label string, a, b *Index, db []*graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var pa, pb PostingList
	var ra, rb RangeBuffer
	checked := 0
	for attempts := 0; attempts < 40 && checked < 15; attempts++ {
		q := db[rng.Intn(len(db))]
		qfa := a.QueryFragments(q)
		qfb := b.QueryFragments(q)
		if len(qfa) != len(qfb) {
			t.Fatalf("%s: fragment count %d vs %d", label, len(qfa), len(qfb))
		}
		if len(qfa) == 0 {
			continue
		}
		i := rng.Intn(len(qfa))
		if qfa[i].Class.Key != qfb[i].Class.Key {
			t.Fatalf("%s: fragment %d class %q vs %q", label, i, qfa[i].Class.Key, qfb[i].Class.Key)
		}
		sigma := float64(rng.Intn(4))
		a.RangeQueryInto(qfa[i], sigma, &pa, &ra, nil)
		b.RangeQueryInto(qfb[i], sigma, &pb, &rb, nil)
		if len(pa.IDs) != len(pb.IDs) {
			t.Fatalf("%s: sigma=%v result size %d vs %d", label, sigma, len(pa.IDs), len(pb.IDs))
		}
		for k := range pa.IDs {
			if pa.IDs[k] != pb.IDs[k] || pa.Dists[k] != pb.Dists[k] {
				t.Fatalf("%s: sigma=%v result %d: (%d,%v) vs (%d,%v)",
					label, sigma, k, pa.IDs[k], pa.Dists[k], pb.IDs[k], pb.Dists[k])
			}
		}
		checked++
	}
	if checked < 8 {
		t.Fatalf("%s: only %d queries checked", label, checked)
	}
}

func testMappedDifferential(t *testing.T, metric distance.Metric) {
	t.Helper()
	x, db := buildSmall(t, metric, 17, 40)
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.pisidx3")
	if err := fsys.WriteFileAtomic(fsys.OS, filepath.Dir(path), filepath.Base(path), x.Save); err != nil {
		t.Fatal(err)
	}

	// Leg 1: mapped open.
	mx, err := OpenMapped(path, metric)
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	if mx.mapping == nil {
		t.Fatal("OpenMapped returned a heap index")
	}
	if mx.Fingerprint() != x.Fingerprint() {
		t.Fatalf("fingerprint %x vs %x", mx.Fingerprint(), x.Fingerprint())
	}
	queriesEqual(t, "mapped-vs-build", mx, x, db)

	// Leg 2: heap Load of the same v3 stream.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hx, err := LoadBytes(data, metric)
	if err != nil {
		t.Fatal(err)
	}
	if hx.mapping != nil {
		t.Fatal("Load returned a mapped index")
	}
	queriesEqual(t, "heapload-vs-mapped", hx, mx, db)
	if hs, ms := hx.Stats(), mx.Stats(); hs != ms {
		t.Fatalf("stats mismatch: heap %+v mapped %+v", hs, ms)
	}

	// Paired, mapped and heap classes hold the same graphs.
	if err := mx.Pair(db); err != nil {
		t.Fatal(err)
	}
	for i, c := range x.Classes() {
		mc := mx.Classes()[i]
		if c.Key != mc.Key {
			t.Fatalf("class %d key %q vs %q", i, c.Key, mc.Key)
		}
		got := mx.Candidates(nil, []*Class{mc}, nil)
		want := x.Candidates(nil, []*Class{c}, nil)
		if !slices.Equal(got, want) || mc.GraphCount() != c.GraphCount() {
			t.Fatalf("class %d graphs %v vs %v", i, got, want)
		}
		if c.Fragments() != mc.Fragments() {
			t.Fatalf("class %d fragments %d vs %d", i, c.Fragments(), mc.Fragments())
		}
	}

	// Save of a mapped index streams the v3 image verbatim and reloads.
	var buf bytes.Buffer
	if err := mx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("mapped Save is not the file image")
	}
	rx, err := LoadBytes(buf.Bytes(), metric)
	if err != nil {
		t.Fatal(err)
	}
	queriesEqual(t, "saveload-vs-build", rx, x, db)
}

// One differential per metric; Trie and RTree are the names the
// EdgeMutation and Linear ones have always had (see metricCases).
func TestMappedDifferentialTrie(t *testing.T) {
	testMappedDifferential(t, distance.EdgeMutation{})
}

func TestMappedDifferentialRTree(t *testing.T) {
	testMappedDifferential(t, distance.Linear{})
}

func TestMappedDifferentialFullMetric(t *testing.T) {
	testMappedDifferential(t, distance.FullMutation{})
}

func TestMappedDifferentialMatrix(t *testing.T) {
	testMappedDifferential(t, testMatrix())
}

// TestMappedDifferentialVPTree: an image of the VP-tree kind (kind byte 2,
// one id per entry, repeats included), which nothing writes any more,
// opens mapped and on the heap, and once paired with its graphs answers
// the same either way, and after the heap index saved it again in today's
// layout.
func TestMappedDifferentialVPTree(t *testing.T) {
	metric := distance.EdgeMutation{}
	path := filepath.Join("testdata", "images", "kind2-labels.pisidx3")
	db := parentImageDB()
	mx, err := OpenMapped(path, metric)
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hx, err := LoadBytes(data, metric)
	if err != nil {
		t.Fatal(err)
	}
	if mx.Fingerprint() != graph.Fingerprint(db) {
		t.Fatal("the image is not over parentImageDB")
	}
	for _, x := range []*Index{hx, mx} {
		if err := x.Pair(db); err != nil {
			t.Fatal(err)
		}
	}
	queriesEqual(t, "heapload-vs-mapped", hx, mx, db)
	if hs, ms := hx.Stats(), mx.Stats(); hs != ms {
		t.Fatalf("stats mismatch: heap %+v mapped %+v", hs, ms)
	}
	resaved, _ := imageBytes(t, hx)
	if bytes.Equal(resaved, data) {
		t.Fatal("the heap index saved the one-id-per-entry layout again")
	}
	rx, err := openV3(resaved, metric, nil)
	if err != nil {
		t.Fatal(err)
	}
	queriesEqual(t, "resaved-vs-image", rx, mx, db)
}

// v3Sections walks the section framing of a v3 image and returns the
// [start,end) byte ranges of its two pre-slab section payloads, header and
// directory, plus the slab offset, so corruption tests can target every
// region precisely.
func v3Sections(t *testing.T, data []byte) (sections [][2]int, slabOff int) {
	t.Helper()
	off := len(persistMagic)
	for range 2 {
		if off+4 > len(data) {
			t.Fatalf("image of %d bytes ends inside its section framing", len(data))
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		payload := [2]int{off + 4, off + 4 + n}
		sections = append(sections, payload)
		off = payload[1] + 4 // skip CRC
	}
	// The header's payload ends with the slab offset and length (u64 each).
	hdr := sections[0]
	return sections, int(binary.LittleEndian.Uint64(data[hdr[1]-16 : hdr[1]-8]))
}

// TestMappedCorruption flips bits in every section and every per-class
// slab block and asserts OpenMapped and Load fail with the damaged region
// named.
func TestMappedCorruption(t *testing.T) {
	metric := distance.EdgeMutation{}
	x, _ := buildSmall(t, metric, 5, 25)
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.pisidx3")
	if err := fsys.WriteFileAtomic(fsys.OS, filepath.Dir(path), filepath.Base(path), x.Save); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sections, slabOff := v3Sections(t, clean)
	if slabOff%v3SlabAlign != 0 || slabOff >= len(clean) {
		t.Fatalf("slab offset %d not page aligned inside %d-byte file", slabOff, len(clean))
	}

	expectFail := func(name string, data []byte, wantSub string) {
		t.Helper()
		p := filepath.Join(dir, "bad.pisidx3")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		bx, err := OpenMapped(p, metric)
		if err == nil {
			bx.Close()
			t.Fatalf("%s: corruption not detected", name)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q does not name %q", name, err, wantSub)
		}
		// The heap reader shares the mapped reader's prologue: same error.
		if _, herr := LoadBytes(data, metric); herr == nil || herr.Error() != err.Error() {
			t.Fatalf("%s: Load reports %v, OpenMapped %v", name, herr, err)
		}
	}

	flip := func(pos int) []byte {
		d := append([]byte(nil), clean...)
		d[pos] ^= 0x40
		return d
	}

	names := []string{"image header", "image directory"}
	for i, sec := range sections {
		mid := (sec[0] + sec[1]) / 2
		expectFail(names[i]+" bitflip", flip(mid), names[i])
	}

	// Magic damage: not a v3 image at all.
	expectFail("magic bitflip", flip(2), "index:")

	// Slab damage: every class's entry block, at its first byte, mid-point,
	// and last byte.
	for ci := range x.Classes() {
		mx, err := OpenMapped(path, metric)
		if err != nil {
			t.Fatal(err)
		}
		mc := mx.Classes()[ci]
		if b := mc.ents.ids[:mc.ents.size()]; len(b) > 0 {
			// Locate the block inside the file via its offset from the
			// mapping's slab start.
			start := slabOff + offsetIn(mx.mapping.Data()[slabOff:], b)
			for _, pos := range []int{start, start + len(b)/2, start + len(b) - 1} {
				expectFail("entry block bitflip", flip(pos), "entry block")
			}
		}
		mx.Close()
	}

	// Truncations at every section boundary and inside the slab.
	expectFail("truncated before directory", clean[:sections[0][1]+4], "directory")
	expectFail("truncated mid-directory", clean[:(sections[1][0]+sections[1][1])/2], "directory")
	expectFail("truncated after the directory", clean[:sections[1][1]+4], "image slab: truncated")
	expectFail("truncated mid-slab", clean[:slabOff+(len(clean)-slabOff)/2], "truncated")
	expectFail("truncated before slab", clean[:slabOff], "truncated")
}

// offsetIn returns the byte offset of sub inside outer (both must alias
// the same backing array).
func offsetIn(outer, sub []byte) int {
	if len(sub) == 0 {
		return 0
	}
	for i := range outer {
		if &outer[i] == &sub[0] {
			return i
		}
	}
	return -1
}
