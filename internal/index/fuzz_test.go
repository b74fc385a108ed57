package index

import (
	"bytes"
	"testing"

	"pis/internal/distance"
)

// FuzzIndexLoad feeds arbitrary bytes to both image readers. Each must
// return an error or an index that is safe to use: every class answers a
// range query without panicking and only with ids inside the database,
// the two readers agree, and a heap-loaded index saves again. The
// committed corpus (testdata/fuzz/FuzzIndexLoad) holds one small image
// per kind byte — written by the last commit that still had other formats,
// so a plain `go test` also proves those bytes keep opening — plus the two
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
		hx, herr := Load(bytes.NewReader(data), metric)
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
			for _, id := range mc.AppendPostings(nil) {
				if id < 0 || int(id) >= hx.DBSize() {
					t.Fatalf("class %d: posting id %d outside the %d-graph database", i, id, hx.DBSize())
				}
			}
		}
	})
}
