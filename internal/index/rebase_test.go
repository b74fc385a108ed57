package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pis/internal/graph"
	"pis/internal/mining"
)

// TestRebaseEqualsBuild: the image of an index merged forward is, byte for
// byte, the image BuildParallel writes over the surviving graphs with the
// same features — from a heap and from a mapped source, at one worker and
// at two, whatever died in between.
func TestRebaseEqualsBuild(t *testing.T) {
	const nBase, nDelta = 40, 12
	rng := rand.New(rand.NewSource(71))
	all := make([]*graph.Graph, nBase+nDelta)
	for i := range all {
		all[i] = randomMolecule(rng, 6+rng.Intn(5))
	}
	base, delta := all[:nBase], all[nBase:]
	feats, err := mining.Mine(base, mining.Options{MaxEdges: 5, MinSupportFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	image := func(x *Index) []byte {
		data, _ := imageBytes(t, x)
		return data
	}
	fifth := func(i int) bool { return i%5 == 2 }
	never := func(int) bool { return false }

	for _, tc := range metricCases {
		opts := Options{Metric: tc.metric}
		heap, err := BuildParallel(base, feats, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := openV3(image(heap), tc.metric, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The rarest structure that occurs at all: killing its graphs
		// leaves a class the base contributes nothing to.
		var rare *Class
		for _, c := range heap.Classes() {
			if n := c.GraphCount(); n > 0 && (rare == nil || n < rare.GraphCount()) {
				rare = c
			}
		}
		if rare == nil || rare.GraphCount() > nBase/2 {
			t.Fatalf("%s: no class to empty and keep half the base", tc.name)
		}
		inRare := make(map[int]bool)
		for _, id := range heap.Candidates(nil, []*Class{rare}, nil) {
			inRare[int(id)] = true
		}

		cases := []struct {
			name                string
			baseDead, deltaDead func(int) bool
		}{
			{"no deletes", never, never},
			{"a fifth deleted", fifth, fifth},
			{"a class emptied", func(i int) bool { return inRare[i] }, never},
			{"empty delta", fifth, nil},
			{"delta all tombstoned", never, func(int) bool { return true }},
		}
		for _, cs := range cases {
			remap := make([]int32, nBase)
			var db []*graph.Graph
			for i, g := range base {
				remap[i] = -1
				if !cs.baseDead(i) {
					remap[i] = int32(len(db))
					db = append(db, g)
				}
			}
			firstNew := len(db)
			for i, g := range delta {
				if cs.deltaDead != nil && !cs.deltaDead(i) {
					db = append(db, g)
				}
			}
			want, err := BuildParallel(db, feats, opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range []struct {
				name string
				old  *Index
			}{{"heap", heap}, {"mapped", mapped}} {
				for _, workers := range []int{1, 2} {
					name := fmt.Sprintf("%s/%s/%s/workers=%d", tc.name, cs.name, src.name, workers)
					got, err := Rebase(src.old, remap, db, firstNew, workers)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !bytes.Equal(image(got), image(want)) {
						t.Errorf("%s: merged image differs from the build over the %d survivors (stats %+v, want %+v)",
							name, len(db), got.Stats(), want.Stats())
					}
				}
			}
		}
		if _, err := Rebase(heap, make([]int32, nBase-1), base, nBase, 1); err == nil {
			t.Errorf("%s: a remap shorter than the old index was accepted", tc.name)
		}
	}
}
