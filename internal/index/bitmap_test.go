package index

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"pis/internal/binio"
	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/mining"
)

// sortedCandidates is the structural intersection Candidates replaced, kept
// as its reference: decode each class's sorted graph list from its entry
// runs, intersect them smallest first, then drop the tombstoned ids.
func sortedCandidates(n int, classes []*Class, tombs *Tombstones) []int32 {
	var cur []int32
	if len(classes) == 0 {
		for id := 0; id < n; id++ {
			cur = append(cur, int32(id))
		}
	} else {
		lists := make([][]int32, len(classes))
		for i, c := range classes {
			lists[i] = runGraphs(c)
		}
		slices.SortFunc(lists, func(a, b []int32) int { return len(a) - len(b) })
		cur = lists[0]
		for _, other := range lists[1:] {
			kept := cur[:0]
			for _, id := range cur {
				if _, ok := slices.BinarySearch(other, id); ok {
					kept = append(kept, id)
				}
			}
			cur = kept
		}
	}
	kept := cur[:0]
	for _, id := range cur {
		if !tombs.Has(id) {
			kept = append(kept, id)
		}
	}
	return kept
}

// TestCandidatesMatchSortedIntersection: over random subsets of an index's
// classes and random tombstone sets — none, sparse, dense, reaching past
// the indexed graphs as a segment's delta ids do — the bitmap AND returns
// what the sorted-list intersection returns, on a heap index, on the same
// image mapped, and on the index Rebase merges forward from it. The sizes
// put the last bitmap word at full, partial and a single bit.
func TestCandidatesMatchSortedIntersection(t *testing.T) {
	metric := distance.EdgeMutation{}
	for _, n := range []int{64, 130, 193} {
		all := chem.Generate(n+20, chem.Config{Seed: int64(n)})
		db, delta := all[:n], all[n:]
		feats, err := mining.Mine(db, mining.Options{MaxEdges: 4, MinEdges: 2, MinSupportFraction: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		heap, err := BuildParallel(db, feats, Options{Metric: metric}, 2)
		if err != nil {
			t.Fatal(err)
		}
		image, _ := imageBytes(t, heap)
		mapped, err := openV3(image, metric, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := mapped.Pair(db); err != nil {
			t.Fatal(err)
		}
		// Merge forward: every seventh graph gone, the delta appended.
		remap := make([]int32, n)
		var merged []*graph.Graph
		for i, g := range db {
			remap[i] = -1
			if i%7 != 3 {
				remap[i] = int32(len(merged))
				merged = append(merged, g)
			}
		}
		firstNew := len(merged)
		merged = append(merged, delta...)
		rebased, err := Rebase(mapped, remap, merged, firstNew, 2)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(int64(n)))
		for _, side := range []struct {
			name string
			x    *Index
		}{{"heap", heap}, {"mapped", mapped}, {"rebased", rebased}} {
			x := side.x
			if want := 8 * ((x.DBSize() + 63) / 64) * len(x.Classes()); x.Memory().BitmapBytes != want {
				t.Fatalf("n=%d %s: BitmapBytes %d, want %d", n, side.name, x.Memory().BitmapBytes, want)
			}
			narrowed, emptied := 0, 0
			for trial := 0; trial < 300; trial++ {
				var classes []*Class
				for _, c := range x.Classes() {
					if rng.Intn(len(x.Classes())) < trial%6 {
						classes = append(classes, c)
					}
				}
				var tombs *Tombstones
				if dead := []int{0, 0, 20, 2}[trial%4]; dead > 0 {
					for id := 0; id < x.DBSize()+40; id++ {
						if rng.Intn(dead) == 0 {
							tombs = tombs.WithSet(int32(id))
						}
					}
				}
				got := x.Candidates(nil, classes, tombs)
				want := sortedCandidates(x.DBSize(), classes, tombs)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d %s trial %d: %d classes, %d tombstones: bitmap AND %v, sorted lists %v",
						n, side.name, trial, len(classes), tombs.Count(), got, want)
				}
				if len(classes) > 0 && len(got) > 0 && len(got) < x.DBSize()-tombs.Count() {
					narrowed++
				}
				if len(got) == 0 {
					emptied++
				}
			}
			if narrowed < 50 {
				t.Fatalf("n=%d %s: only %d of 300 intersections narrowed the database: fixture too weak (%d came out empty)", n, side.name, narrowed, emptied)
			}
		}
	}
}

// TestSignatureImageOpens: testdata/images/sig2-labels.pisidx3 was written
// by the last commit whose fingerprints carried a two-word class signature
// (header width 2, sixteen bytes behind every fingerprint record). Both
// readers open it, and once paired with its graphs the index they return
// answers like a fresh build over the same graphs: the same fingerprints,
// statistics, structural candidates and range lists, and Save writes the
// fresh build's image.
func TestSignatureImageOpens(t *testing.T) {
	metric := distance.EdgeMutation{}
	db := chem.Generate(40, chem.Config{Seed: 4})
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 4, MinEdges: 2, MinSupportFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildParallel(db, feats, Options{Metric: metric}, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "images", "sig2-labels.pisidx3")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr, _, err := parseV3Meta(data, metric); err != nil || signatureWidth(data) != 2 {
		t.Fatalf("the pinned image should carry 2 signature words: header %+v, err %v", hdr, err)
	}
	hx, err := LoadBytes(data, metric)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := OpenMapped(path, metric)
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	if err := hx.Pair(db); err != nil {
		t.Fatal(err)
	}
	freshImage, _ := imageBytes(t, fresh)
	if resaved, _ := imageBytes(t, hx); !bytes.Equal(resaved, freshImage) {
		t.Fatal("Save of the loaded image differs from a fresh build's image")
	}
	if signatureWidth(freshImage) != 0 || bytes.Equal(freshImage, data) {
		t.Fatalf("a fresh image (%d bytes) should be another layout than the pinned one (%d bytes), without its signature words", len(freshImage), len(data))
	}
	rng := rand.New(rand.NewSource(4))
	for _, x := range []*Index{hx, mx} {
		if x.Fingerprint() != graph.Fingerprint(db) {
			t.Fatal("the image is not over this test's graphs")
		}
		if err := x.Pair(db); err != nil {
			t.Fatal(err)
		}
		if x.Stats() != fresh.Stats() || x.Memory().BitmapBytes != fresh.Memory().BitmapBytes {
			t.Fatalf("mapped=%v: stats %+v bitmaps %d B, fresh build %+v %d B", x.mapping != nil, x.Stats(), x.Memory().BitmapBytes, fresh.Stats(), fresh.Memory().BitmapBytes)
		}
		for trial := 0; trial < 60; trial++ {
			var mine, theirs []*Class
			for i, c := range x.Classes() {
				if rng.Intn(3) == 0 {
					mine, theirs = append(mine, c), append(theirs, fresh.Classes()[i])
				}
			}
			if got, want := x.Candidates(nil, mine, nil), fresh.Candidates(nil, theirs, nil); !slices.Equal(got, want) {
				t.Fatalf("mapped=%v: %d classes give candidates %v, fresh build %v", x.mapping != nil, len(mine), got, want)
			}
		}
		for _, q := range db[:6] {
			qfs, fqfs := x.QueryFragments(q), fresh.QueryFragments(q)
			if len(qfs) != len(fqfs) || len(qfs) == 0 {
				t.Fatalf("mapped=%v: %d query fragments, fresh build %d", x.mapping != nil, len(qfs), len(fqfs))
			}
			for i := 0; i < len(qfs); i += 1 + len(qfs)/8 {
				for _, sigma := range []float64{0, 1, 2} {
					if got, want := x.RangeQuery(qfs[i], sigma), fresh.RangeQuery(fqfs[i], sigma); !reflect.DeepEqual(got, want) {
						t.Fatalf("mapped=%v σ=%v: range list %v, fresh build %v", x.mapping != nil, sigma, got, want)
					}
				}
			}
		}
	}
}

// signatureWidth reads the header field that once gave the width of the
// class signature behind every fingerprint record (readers now require 0).
func signatureWidth(data []byte) uint64 {
	sr := binio.NewSectionReader(bytes.NewReader(data[len(persistMagic):]))
	sr.Next()
	sr.U8()
	sr.U8()
	sr.Uvarint()
	sr.Uvarint()
	sr.U64()
	sr.Uvarint()
	return sr.Uvarint()
}
