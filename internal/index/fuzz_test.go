package index

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"pis/internal/distance"
	"pis/internal/graph"
)

// byteFeed deals deterministic pseudo-random decisions from fuzz input,
// wrapping around so every byte string decodes to something.
type byteFeed struct {
	data []byte
	i    int
}

func (f *byteFeed) next() int {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[f.i%len(f.data)]
	f.i++
	return int(b)
}

// fuzzGraph decodes a small connected labeled graph from fuzz input (the
// format of package canon's fuzz targets): a spanning tree first, then up
// to n extra edges, skipping duplicates.
func fuzzGraph(f *byteFeed) *graph.Graph {
	n := f.next()%6 + 2 // 2..7 vertices
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VLabel(f.next() % 4))
	}
	seen := map[[2]int32]bool{}
	addEdge := func(u, v int32, l graph.ELabel) {
		if u > v {
			u, v = v, u
		}
		if u != v && !seen[[2]int32{u, v}] {
			seen[[2]int32{u, v}] = true
			b.AddEdge(u, v, l)
		}
	}
	for v := 1; v < n; v++ {
		addEdge(int32(f.next()%v), int32(v), graph.ELabel(f.next()%3))
	}
	for i := 0; i < f.next()%n; i++ {
		addEdge(int32(f.next()%n), int32(f.next()%n), graph.ELabel(f.next()%3))
	}
	return b.MustBuild()
}

// FuzzClassWalk holds the index's one fragment finder to direct
// canonicalization on an arbitrary graph: under every other skeleton of
// at most 5 edges as the class set, the (class, stored key) pairs a build
// folds in are, as a multiset, those of every enumerated fragment whose
// extracted skeleton's MinCode is a class, keyed by its smallest variant.
// A wrong symmetry-breaking condition would drop or repeat fragments at
// build and query time alike, so no answer-level test would see it.
func FuzzClassWalk(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 1, 2, 1, 0, 2})
	f.Add([]byte{5, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3})
	f.Add([]byte{0xff, 0x80, 0x41, 7, 9, 13, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(&byteFeed{data: data})
		feats := everyOtherShape([]*graph.Graph{g}, 5)
		if len(feats) == 0 {
			return
		}
		x, err := scaffold(feats, Options{Metric: distance.FullMutation{}})
		if err != nil {
			t.Fatal(err)
		}
		key := func(c *Class, k []uint64) string { return fmt.Sprint(c.ID, k) }
		want := map[string]int{}
		for _, qf := range queryFragmentsByExtract(x, g) {
			want[key(qf.Class, slices.MinFunc(qf.Class.Variants(qf.Key), slices.Compare[[]uint64]))]++
		}
		ops := x.computeOps(graphOps{}, g, new(FragmentScratch))
		keys := ops.keys
		for _, c := range ops.classes {
			want[key(c, keys[:c.SeqLen()])]--
			keys = keys[c.SeqLen():]
		}
		for k, n := range want {
			if n != 0 {
				t.Fatalf("graph %v: (class, key) %q folded %+d times against the reference", g, k, -n)
			}
		}
	})
}

// FuzzIndexLoad feeds arbitrary bytes to both image readers. Each must
// return an error or an index that is safe to use: every class answers a
// range query without panicking and only with ids inside the database,
// the two readers agree, and a heap-loaded index saves again. The
// committed corpus (testdata/fuzz/FuzzIndexLoad) holds one small image
// per older kind byte — written by the last commit that still had other
// formats, so a plain `go test` also proves those bytes keep opening —
// two label images of kind 3 with a fingerprint section (seed-labels,
// seed-labels-full), a label image of this version's kind 5
// (seed-labels-kind5; TestParentImagesOpen checks the answers of all
// three), the
// crafted count-bomb images of TestPersistRejectsOversizedCounts and the
// well-formed one of TestOpenIgnoresHeaderGraphCount. full
// picks the metric, whose vertex-blindness must match the image's; both
// read labels, so the weight image of the corpus is a rejection.
func FuzzIndexLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, full bool) {
		var metric distance.Metric = distance.EdgeMutation{}
		if full {
			metric = distance.FullMutation{}
		}
		hx, herr := LoadBytes(data, metric)
		mx, merr := openV3(data, metric, nil)
		if (herr == nil) != (merr == nil) {
			t.Fatalf("readers disagree: Load %v, openV3 %v", herr, merr)
		}
		if herr != nil {
			return
		}
		if err := hx.Save(new(bytes.Buffer)); err != nil {
			t.Fatalf("loaded index does not save: %v", err)
		}
		// Nothing an open allocates may be sized by DBSize, which only the
		// owner of the graphs can vouch for (segment.OpenDurable compares the
		// two): the class bitmaps wait for Pair, which takes the graphs.
		if hx.Memory().BitmapBytes != 0 || mx.Memory().BitmapBytes != 0 {
			t.Fatalf("bitmaps before Pair: heap %d bytes, mapped %d", hx.Memory().BitmapBytes, mx.Memory().BitmapBytes)
		}
		if err := hx.Pair(nil); (err == nil) != (hx.DBSize() == 0) {
			t.Fatalf("Pair of a %d-graph index with no graphs: %v", hx.DBSize(), err)
		}
		// The range buffer is sized by DBSize too, at the first query.
		if hx.DBSize() > 1<<16 {
			return
		}
		var hl, ml PostingList
		var hb, mb RangeBuffer
		for i, c := range hx.Classes() {
			mc := mx.Classes()[i]
			probe := func(c *Class) QueryFragment {
				return QueryFragment{Class: c, Key: make([]uint64, c.SeqLen())}
			}
			hx.RangeQueryInto(probe(c), 2, &hl, &hb, nil)
			mx.RangeQueryInto(probe(mc), 2, &ml, &mb, nil)
			if len(hl.IDs) != len(ml.IDs) {
				t.Fatalf("class %d: heap answers %d graphs, mapped %d", i, len(hl.IDs), len(ml.IDs))
			}
			for k, id := range hl.IDs {
				if id != ml.IDs[k] || hl.Dists[k] != ml.Dists[k] {
					t.Fatalf("class %d: heap (%d,%v) vs mapped (%d,%v)", i, id, hl.Dists[k], ml.IDs[k], ml.Dists[k])
				}
			}
		}
	})
}
