package segment_test

import (
	"testing"

	"pis/internal/canon"
	"pis/internal/chem"
	"pis/internal/obs"
	"pis/internal/segment"
)

// TestMemoProbationFlood: a query read twice stays in the memo through a
// flood of 1,000 one-off queries whose answers add up to more than the
// whole budget, and the one-offs never hold more than the eighth of it
// that probation may. Were the least recently put query evicted first,
// the flood would age the repeated query out and its third read would
// miss.
func TestMemoProbationFlood(t *testing.T) {
	graphs := chem.Generate(200, chem.Config{Seed: 3})
	seg, err := segment.New(graphs, 0, segFeatures(t, graphs), segConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	const sigma = 2.0
	q := chem.SampleQueries(graphs, 1, 5, 1)[0]
	search(seg, q, sigma)
	if r := search(seg, q, sigma); r.Stats.MemoHits != 1 || len(r.Answers) == 0 {
		t.Fatalf("the second read of the query: %d answers, stats %+v; want a memo hit with answers", len(r.Answers), r.Stats)
	}

	gauge := obs.Default().Gauge("pis_result_memo_bytes", "")
	base, share := gauge.Value(), float64(segment.MemoFloorBytes/8)
	seen := map[string]bool{canon.GraphKey(q): true}
	answers := 0
	for _, o := range chem.SampleQueries(graphs, 3000, 5, 7) {
		if k := canon.GraphKey(o); !seen[k] && len(seen) <= 1000 {
			seen[k] = true
			answers += len(search(seg, o, sigma).Answers)
			if held := gauge.Value() - base; held > share {
				t.Fatalf("after %d one-off queries they hold %g memo bytes, probation's share is %g", len(seen)-1, held, share)
			}
		}
	}
	if len(seen) <= 1000 || 12*answers <= segment.MemoFloorBytes {
		t.Fatalf("the flood is %d one-off queries with %d answers; the test needs 1,000 whose answers outgrow the %d-byte budget",
			len(seen)-1, answers, segment.MemoFloorBytes)
	}

	c0 := readMemoCounts()
	r := search(seg, q, sigma)
	sameAsNaive(t, "after the flood", seg, q, sigma, r)
	if got := readMemoCounts().since(c0); got != (memoCounts{hit: 1}) || r.Stats.Verified != 0 {
		t.Fatalf("the read after the flood: lookups %+v, stats %+v; want a pure memo hit", got, r.Stats)
	}
}
