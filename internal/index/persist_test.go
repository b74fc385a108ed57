package index

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pis/internal/canon"
	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/mining"
)

// roundTrip saves and reloads an index, then checks that every range
// query answers identically.
func roundTrip(t *testing.T, x *Index, db []*graph.Graph, metric distance.Metric) {
	t.Helper()
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := LoadBytes(buf.Bytes(), metric)
	if err != nil {
		t.Fatal(err)
	}
	if y.DBSize() != x.DBSize() || len(y.Classes()) != len(x.Classes()) {
		t.Fatalf("shape mismatch after load: %d/%d classes", len(y.Classes()), len(x.Classes()))
	}
	sx, sy := x.Stats(), y.Stats()
	if sx != sy {
		t.Fatalf("stats mismatch: saved %+v, loaded %+v", sx, sy)
	}
	rng := rand.New(rand.NewSource(8))
	checked := 0
	for attempts := 0; attempts < 30 && checked < 10; attempts++ {
		q := db[rng.Intn(len(db))]
		qfs := x.QueryFragments(q)
		if len(qfs) == 0 {
			continue
		}
		qf := qfs[rng.Intn(len(qfs))]
		qfs2 := y.QueryFragments(q)
		if len(qfs2) != len(qfs) {
			t.Fatalf("query fragments differ after load: %d vs %d", len(qfs2), len(qfs))
		}
		sigma := float64(rng.Intn(3))
		want := x.RangeQuery(qf, sigma)
		// Find the matching fragment in the loaded index (same edges).
		var got map[int32]float64
		for _, qf2 := range qfs2 {
			if sameEdges(qf.Edges, qf2.Edges) {
				got = y.RangeQuery(qf2, sigma)
				break
			}
		}
		if got == nil {
			t.Fatal("fragment missing after load")
		}
		if len(got) != len(want) {
			t.Fatalf("range query size differs after load: %d vs %d", len(got), len(want))
		}
		for id, d := range want {
			if g, ok := got[id]; !ok || g != d {
				t.Fatalf("range query result differs for graph %d: %v vs %v", id, g, d)
			}
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("only %d round-trip queries checked", checked)
	}
}

// One round trip per metric (names: see metricCases), and one of a heap
// index decoded from an image of the VP-tree kind, which saves in today's
// layout.
func TestPersistRoundTripTrie(t *testing.T) {
	x, db := buildSmall(t, distance.EdgeMutation{}, 31, 15)
	roundTrip(t, x, db, distance.EdgeMutation{})
}

func TestPersistRoundTripFull(t *testing.T) {
	x, db := buildSmall(t, distance.FullMutation{}, 31, 15)
	roundTrip(t, x, db, distance.FullMutation{})
}

func TestPersistRoundTripMatrix(t *testing.T) {
	x, db := buildSmall(t, testMatrix(), 31, 15)
	roundTrip(t, x, db, testMatrix())
}

func TestPersistRoundTripRTree(t *testing.T) {
	x, db := buildSmall(t, distance.Linear{}, 31, 15)
	roundTrip(t, x, db, distance.Linear{})
}

func TestPersistRoundTripVPTree(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "images", "kind2-labels.pisidx3"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	x, err := Load(f, distance.EdgeMutation{})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Pair(parentImageDB()); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, x, parentImageDB(), distance.EdgeMutation{})
}

func TestPersistRejectsGarbage(t *testing.T) {
	if _, err := LoadBytes([]byte("not an index"), distance.EdgeMutation{}); err == nil {
		t.Error("garbage stream accepted")
	}
}

func TestPersistRejectsMetricMismatch(t *testing.T) {
	x, _ := buildSmall(t, distance.EdgeMutation{}, 3, 8)
	labels, _ := imageBytes(t, x)
	// FullMutation is not vertex-blind; the stored layout is.
	if _, err := LoadBytes(labels, distance.FullMutation{}); err == nil {
		t.Error("vertex-blindness mismatch accepted")
	}
	// Linear is as vertex-blind as EdgeMutation but reads weights where
	// the image stores labels, and the reverse: answers from either
	// pairing would be priced on the wrong element.
	x, _ = buildSmall(t, distance.Linear{}, 3, 8)
	weights, _ := imageBytes(t, x)
	for name, tc := range map[string]struct {
		image  []byte
		metric distance.Metric
	}{
		"labels opened with Linear":        {labels, distance.Linear{}},
		"weights opened with EdgeMutation": {weights, distance.EdgeMutation{}},
	} {
		if _, err := LoadBytes(tc.image, tc.metric); err == nil {
			t.Errorf("%s: Load accepted it", name)
		}
		if _, err := openV3(tc.image, tc.metric, nil); err == nil {
			t.Errorf("%s: the mapped reader accepted it", name)
		}
	}
}

func TestPersistRejectsNilMetric(t *testing.T) {
	if _, err := LoadBytes(nil, nil); err == nil {
		t.Error("nil metric accepted")
	}
}

func sameEdges(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPersistFingerprintRoundTrip: a built index carries the fingerprint
// of its graphs and the image preserves it bit for bit.
func TestPersistFingerprintRoundTrip(t *testing.T) {
	metric := distance.EdgeMutation{}
	x, db := buildSmall(t, metric, 17, 12)
	if x.Fingerprint() != graph.Fingerprint(db) {
		t.Fatalf("built index fingerprint %x, want %x", x.Fingerprint(), graph.Fingerprint(db))
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := LoadBytes(buf.Bytes(), metric)
	if err != nil {
		t.Fatal(err)
	}
	if y.Fingerprint() != x.Fingerprint() {
		t.Fatalf("fingerprint changed across save/load: %x vs %x", y.Fingerprint(), x.Fingerprint())
	}
}

// imageBytes saves x and returns the image with the offset of its slab.
func imageBytes(t *testing.T, x *Index) (data []byte, slabOff int) {
	t.Helper()
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, slabOff = v3Sections(t, buf.Bytes())
	return buf.Bytes(), slabOff
}

// TestPersistDetectsCorruption: flipping any bit of the image outside
// the zero padding before the slab (the one region nothing reads), or
// truncating it anywhere, must surface as an error from both readers
// (checksummed sections and blocks), never as a silently different index.
func TestPersistDetectsCorruption(t *testing.T) {
	metric := distance.EdgeMutation{}
	x, _ := buildSmall(t, metric, 7, 9)
	clean, slabOff := imageBytes(t, x)
	sections, _ := v3Sections(t, clean)
	padStart := sections[len(sections)-1][1] + 4 // past the last section's CRC
	readers := map[string]func([]byte) error{
		"LoadBytes": func(b []byte) error { _, err := LoadBytes(b, metric); return err },
		"openV3":    func(b []byte) error { _, err := openV3(b, metric, nil); return err },
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		pos := rng.Intn(len(clean))
		if pos >= padStart && pos < slabOff {
			continue
		}
		dirty := append([]byte(nil), clean...)
		dirty[pos] ^= 1 << uint(rng.Intn(8))
		for name, read := range readers {
			if read(dirty) == nil {
				t.Fatalf("%s: bit flip at byte %d loaded cleanly", name, pos)
			}
		}
	}
	for cut := 0; cut < len(clean); cut += 7 {
		for name, read := range readers {
			if read(clean[:cut]) == nil {
				t.Fatalf("%s: truncation to %d bytes loaded cleanly", name, cut)
			}
		}
	}
}

// TestPersistRejectsOversizedCounts: a checksum-valid image whose header
// claims 2^40 classes, or 2^40 graphs (which once sized a fingerprint
// table), used to size allocations straight from those counts and die of a
// fatal out-of-memory inside the reader. Every count is now bounded by the
// bytes that could hold it, so both images are plain errors.
func TestPersistRejectsOversizedCounts(t *testing.T) {
	metric := distance.EdgeMutation{}
	for name, img := range oversizedImages(t) {
		if len(img) != v3SlabAlign {
			t.Fatalf("%s: crafted image is %d bytes, want %d", name, len(img), v3SlabAlign)
		}
		if _, err := LoadBytes(img, metric); err == nil {
			t.Errorf("%s: Load accepted the image", name)
		}
		path := filepath.Join(t.TempDir(), "crafted.pisidx3")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if mx, err := OpenMapped(path, metric); err == nil {
			mx.Close()
			t.Errorf("%s: OpenMapped accepted the image", name)
		}
	}
}

// oversizedImages crafts the two checksum-valid 4 KiB images of
// TestPersistRejectsOversizedCounts.
func oversizedImages(t testing.TB) map[string][]byte {
	t.Helper()
	hdr := v3Header{kind: kindLabels, vertexBlind: true, maxEdges: 3}
	craft := func(hdr v3Header) []byte {
		var buf bytes.Buffer
		if err := writeV3Image(&buf, hdr, nil, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	classes, graphs := hdr, hdr
	classes.nClasses = 1 << 40
	graphs.dbSize = 1 << 40
	return map[string][]byte{
		"nClasses": craft(classes),
		"dbSize":   craft(graphs),
	}
}

// unboundedGraphCountImage crafts a valid image nothing in which bounds the
// header's graph count: one single-edge class with one entry, holding graph
// 0, in a database of MaxInt32 graphs.
func unboundedGraphCountImage(t testing.TB) []byte {
	t.Helper()
	// The run (graph 0), the edge label, the lcp, the run's end.
	slab := []byte{0, 0, 0, 0, 1, 0, 0, 0}
	dc := v3DirClass{code: canon.Code{{I: 0, J: 1}}, entCount: 1, entLen: uint64(len(slab)), entCRC: crc32.ChecksumIEEE(slab)}
	hdr := v3Header{kind: kindLabels, vertexBlind: true, maxEdges: 1, dbSize: math.MaxInt32, nClasses: 1, slabLen: uint64(len(slab))}
	var buf bytes.Buffer
	if err := writeV3Image(&buf, hdr, []v3DirClass{dc}, slab); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOpenIgnoresHeaderGraphCount: the class bitmaps take one bit per graph
// per class, and an image can claim any graph count below 2^31 — sized
// from the header they would be a 256 MiB allocation per class of a 4 KiB
// file. Both readers open such an image without allocating anything of
// that order, and the bitmaps and fingerprints wait for Pair, which
// refuses graphs that are not as many. (The same image in kind 3, with a
// posting block, is testdata/fuzz/FuzzIndexLoad/seed-bomb-bitmap.)
func TestOpenIgnoresHeaderGraphCount(t *testing.T) {
	metric := distance.EdgeMutation{}
	img := unboundedGraphCountImage(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hx, herr := LoadBytes(img, metric)
	mx, merr := openV3(img, metric, nil)
	runtime.ReadMemStats(&after)
	if herr != nil || merr != nil {
		t.Fatalf("the image is well-formed: Load %v, openV3 %v", herr, merr)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("opening a %d-byte image claiming %d graphs allocated %d bytes", len(img), hx.DBSize(), got)
	}
	for _, x := range []*Index{hx, mx} {
		if x.DBSize() != math.MaxInt32 || x.Stats().Fragments != 1 {
			t.Fatalf("crafted image opened as %d graphs, %+v", x.DBSize(), x.Stats())
		}
		if x.Memory().BitmapBytes != 0 {
			t.Fatalf("mapped=%v: %d bitmap bytes before Pair", x.IsMapped(), x.Memory().BitmapBytes)
		}
		if err := x.Pair(make([]*graph.Graph, 1)); err == nil || x.Memory().BitmapBytes != 0 {
			t.Fatalf("mapped=%v: Pair with one graph: err %v, %d bitmap bytes", x.IsMapped(), err, x.Memory().BitmapBytes)
		}
	}
}

// TestSaveImagesByteIdentical: one format, one image. Saving a heap
// index, saving the mapped index opened from that image, WriteMapped and
// saving the index LoadBytes decodes from it all produce the same bytes,
// with no fingerprint section, for every metric.
func TestSaveImagesByteIdentical(t *testing.T) {
	for _, tc := range metricCases {
		x, _ := buildSmall(t, tc.metric, 23, 30)
		heap, _ := imageBytes(t, x)
		checkNoSection(t, heap)
		dir := t.TempDir()
		path := filepath.Join(dir, "idx.pisidx3")
		if err := x.WriteMapped(path); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(heap, file) {
			t.Fatalf("%s: WriteMapped file differs from Save", tc.name)
		}
		mx, err := OpenMapped(path, tc.metric)
		if err != nil {
			t.Fatal(err)
		}
		mapped, _ := imageBytes(t, mx)
		mx.Close()
		if !bytes.Equal(heap, mapped) {
			t.Fatalf("%s: mapped Save differs from heap Save", tc.name)
		}
		hx, err := LoadBytes(heap, tc.metric)
		if err != nil {
			t.Fatal(err)
		}
		if reloaded, _ := imageBytes(t, hx); !bytes.Equal(heap, reloaded) {
			t.Fatalf("%s: Save of the reloaded index differs", tc.name)
		}
	}
}

// TestImageBytesPinned: the bytes of an image are a compatibility surface
// (stores on disk, side files shipped between cluster peers). These are
// the sha256 of the images the last commit with per-class tries and
// R-trees wrote over the same corpus and options; a deliberate format
// change updates them. The three
// label images were re-pinned once since, when the directory's per-class
// count became stored (key, graph) pairs instead of fragment occurrences:
// the directory section differs in that one uvarint per class. All eight
// were re-pinned once more when the per-graph class signature left the
// fingerprint: the header's signature width reads 0 where it read 2 and the
// fingerprint section's payload is 3,486 bytes where it was 4,446 (60
// graphs × 16 bytes); the directory and the slab, still at offset 8,192,
// are the bytes that commit wrote. The two linear images were re-pinned
// once more when fragments came to be classified by extension: a weight
// key is stored as laid out along the embedding that places the fragment,
// and that embedding is now another canonical one (label keys are stored
// as their smallest variant, so the six label images did not move). They
// moved once more for the same reason when builds came to find fragments
// by walking the class trie: the embedding a fragment is placed along is
// now the one its class's symmetry-breaking conditions pass. All eight
// moved once more when every class came to store one entry layout, read
// in place on the heap and mapped alike (kinds 3 and 4): the entry block
// is an id column, then 2-byte label or 8-byte weight keys, lcp bytes and
// uint32 run ends, where it was uvarint keys each followed by its run, and
// weight keys carry id runs instead of one id each. All four moved once
// more when images stopped storing the per-graph fingerprints, which Pair
// computes from the graphs: the header's flag reads 0 where it read 1, the
// fingerprint section is gone, and the slab starts at 4,096 where it
// started at 8,192; the directory and the slab are the bytes the commit
// before wrote. All four moved once more when the posting blocks left the
// images (kinds 5 and 6): the slab is the entry blocks alone, and the
// directory's stored pairs, posting slots and planner stats read 0, so the
// full and matrix images, whose entries are the same and which differed
// only in the stats their costs gave, are now one image.
func TestImageBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		metric distance.Metric
		heap   string
	}{
		{"edge", distance.EdgeMutation{}, "907c611412d9ec97"},
		{"full", distance.FullMutation{}, "d59b9cf8ff63423a"},
		{"matrix", testMatrix(), "d59b9cf8ff63423a"},
		{"linear", distance.Linear{}, "b931e9ec7e72a09b"},
	} {
		db := chem.Generate(60, chem.Config{Seed: 1, Weighted: distance.ReadsWeights(tc.metric)})
		feats, err := mining.Mine(db, mining.Options{MaxEdges: 4, MinEdges: 2, MinSupportFraction: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		x, err := BuildParallel(db, feats, Options{Metric: tc.metric}, 2)
		if err != nil {
			t.Fatal(err)
		}
		image, _ := imageBytes(t, x)
		if got := fmt.Sprintf("%x", sha256.Sum256(image))[:16]; got != tc.heap {
			t.Errorf("%s: in-memory build image sha256 %s…, pinned %s…", tc.name, got, tc.heap)
		}
	}
}

// TestStoreBytesIsSlab: a heap index, built or loaded, holds its class
// stores as exactly the bytes of its image's slab and reports that many
// store bytes; a mapped one reports none. An image of an older layout
// holds none until Pair rebuilds its classes on the heap, mapped or not.
func TestStoreBytesIsSlab(t *testing.T) {
	slabLen := func(x *Index) int {
		image, _ := imageBytes(t, x)
		hdr, _, err := parseV3Meta(image, x.opts.Metric)
		if err != nil {
			t.Fatal(err)
		}
		return int(hdr.slabLen)
	}
	for _, tc := range metricCases {
		x, _ := buildSmall(t, tc.metric, 23, 30)
		want := slabLen(x)
		path := filepath.Join(t.TempDir(), "idx.pisidx3")
		if err := x.WriteMapped(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		hx, err := LoadBytes(data, tc.metric)
		if err != nil {
			t.Fatal(err)
		}
		mx, err := OpenMapped(path, tc.metric)
		if err != nil {
			t.Fatal(err)
		}
		defer mx.Close()
		if want == 0 || x.Memory().StoreBytes != want || hx.Memory().StoreBytes != want || mx.Memory().StoreBytes != 0 {
			t.Fatalf("%s: a %d-byte slab; store bytes built %d, loaded %d, mapped %d",
				tc.name, want, x.Memory().StoreBytes, hx.Memory().StoreBytes, mx.Memory().StoreBytes)
		}
	}
	path := filepath.Join("testdata", "images", "kind0-labels.pisidx3")
	mx, err := OpenMapped(path, distance.EdgeMutation{})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	if got := mx.Memory().StoreBytes; got != 0 {
		t.Fatalf("an unpaired image of an older layout holds %d store bytes", got)
	}
	if err := mx.Pair(parentImageDB()); err != nil {
		t.Fatal(err)
	}
	if got, want := mx.Memory().StoreBytes, slabLen(mx); got == 0 || got != want {
		t.Fatalf("rebuilt from its graphs, an older image holds %d store bytes for a %d-byte slab", got, want)
	}
}
