package index

import (
	"bytes"
	"math"
	"testing"

	"pis/internal/distance"
)

// statsEqual compares every class's planner statistics between two
// indexes with the same class layout.
func statsEqual(t *testing.T, want, got *Index) {
	t.Helper()
	if len(want.Classes()) != len(got.Classes()) {
		t.Fatalf("class count differs: %d vs %d", len(want.Classes()), len(got.Classes()))
	}
	for i, wc := range want.Classes() {
		gc := got.Classes()[i]
		if wc.PlanStats() != gc.PlanStats() {
			t.Fatalf("class %d (%s) stats differ:\nwant %+v\ngot  %+v", i, wc.Key, wc.PlanStats(), gc.PlanStats())
		}
	}
}

// TestClassStatsComputed: a built index carries non-trivial planner
// statistics, internally consistent with the class shapes.
func TestClassStatsComputed(t *testing.T) {
	for _, tc := range metricCases {
		t.Run(tc.name, func(t *testing.T) {
			x, _ := buildSmall(t, tc.metric, 31, 20)
			withPairs := 0
			for _, c := range x.Classes() {
				cs := c.PlanStats()
				if cs.Sequences < 0 || cs.Pairs < 0 {
					t.Fatalf("class %s: negative counters %+v", c.Key, cs)
				}
				sum := int32(0)
				for _, h := range cs.Hist {
					sum += h
				}
				if sum != cs.Pairs {
					t.Fatalf("class %s: histogram sums to %d, pairs %d", c.Key, sum, cs.Pairs)
				}
				if cs.Pairs > 0 {
					withPairs++
					for _, sigma := range []float64{0, 1, 2, 100} {
						p := cs.InRangeFrac(sigma)
						if p < 0 || p > 1 {
							t.Fatalf("class %s: InRangeFrac(%g) = %v out of [0,1]", c.Key, sigma, p)
						}
					}
					if cs.InRangeFrac(100) != 1 {
						t.Fatalf("class %s: unbounded radius should cover every pair", c.Key)
					}
				}
				if c.ProbeCost() < 1 {
					t.Fatalf("class %s: probe cost %v < 1", c.Key, c.ProbeCost())
				}
			}
			if withPairs == 0 {
				t.Fatal("no class collected a distance histogram; fixture too small to exercise stats")
			}
		})
	}
}

// TestPersistStatsRoundTrip: an index loaded from its image carries the
// per-class stats the build computed, bit for bit, for every metric: the
// reader computes them again from the entries, by the same fixed-stride
// sample, and the image does not store them.
func TestPersistStatsRoundTrip(t *testing.T) {
	for _, tc := range metricCases {
		t.Run(tc.name, func(t *testing.T) {
			x, _ := buildSmall(t, tc.metric, 47, 22)
			var buf bytes.Buffer
			if err := x.Save(&buf); err != nil {
				t.Fatal(err)
			}
			y, err := LoadBytes(buf.Bytes(), tc.metric)
			if err != nil {
				t.Fatal(err)
			}
			statsEqual(t, x, y)
		})
	}
}

// TestOpenIgnoresStoredStats: the directory's obsolete slots for the
// planner stats and the stored pair count are not read. A checksum-valid
// image whose directory claims -1 sequences, -3 sampled pairs and 2^40
// stored pairs for every class opens with the stats and counts a build
// computes, on the heap and mapped, so neither ProbeCost nor InRangeFrac
// nor Index.Stats can go negative.
func TestOpenIgnoresStoredStats(t *testing.T) {
	metric := distance.EdgeMutation{}
	x, _ := buildSmall(t, metric, 47, 22)
	image, _ := imageBytes(t, x)
	r := readRaw(t, image)
	for i := range r.dir {
		r.dir[i].pairs = 1 << 40
		r.dir[i].stats[0], r.dir[i].stats[1] = math.MaxUint64, uint64(math.MaxUint64-2) // int32 -1, -3
	}
	crafted := r.bytes(t)
	if bytes.Equal(crafted, image) {
		t.Fatal("the crafted image is the saved one")
	}
	heap, err := LoadBytes(crafted, metric)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := openV3(crafted, metric, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range []*Index{heap, mapped} {
		statsEqual(t, x, y)
		if y.Stats() != x.Stats() {
			t.Fatalf("stats %+v, built %+v", y.Stats(), x.Stats())
		}
		for _, c := range y.Classes() {
			if c.ProbeCost() < 1 || c.PlanStats().InRangeFrac(1) < 0 {
				t.Fatalf("class %s: probe cost %v, InRangeFrac(1) %v", c.Key, c.ProbeCost(), c.PlanStats().InRangeFrac(1))
			}
		}
	}
}
