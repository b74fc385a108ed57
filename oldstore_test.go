package pis_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pis"
	"pis/internal/chem"
)

// TestOldIndexImagesOpenInStores: a store whose index side file is an
// image an earlier version wrote — the trie (kind 0, edge and full
// metrics), R-tree (kind 1) and VP-tree (kind 2) images, one whose
// fingerprints carry class signature words, and label (kind 3) and weight
// (kind 4) images that carry a fingerprint section — opens, answers every
// search as SearchNaive over the same graphs does, and after a checkpoint its side file is written in today's layout
// (kind 5 for labels, 6 for weights), with no fingerprint section.
func TestOldIndexImagesOpenInStores(t *testing.T) {
	// The graphs the images were built over.
	parent := chem.Generate(12, chem.Config{Seed: 3, Weighted: true})
	sig := chem.Generate(40, chem.Config{Seed: 4})
	for _, tc := range []struct {
		file   string
		metric pis.Metric
		graphs []*pis.Graph
		sigmas []float64
		kind   byte
	}{
		{"kind0-labels.pisidx3", pis.EdgeMutation, parent, []float64{0, 1, 2}, 5},
		{"kind0-labels-full.pisidx3", pis.FullMutation, parent, []float64{0, 1, 2}, 5},
		{"kind1-weights.pisidx3", pis.LinearEdgeDistance, parent, []float64{0, 0.05, 0.3}, 6},
		{"kind2-labels.pisidx3", pis.EdgeMutation, parent, []float64{0, 1, 2}, 5},
		{"sig2-labels.pisidx3", pis.EdgeMutation, sig, []float64{0, 1, 2}, 5},
		{"kind3-labels.pisidx3", pis.EdgeMutation, parent, []float64{0, 1, 2}, 5},
		{"kind4-weights.pisidx3", pis.LinearEdgeDistance, parent, []float64{0, 0.05, 0.3}, 6},
	} {
		image, err := os.ReadFile(filepath.Join("internal", "index", "testdata", "images", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := pis.New(tc.graphs, pis.Options{Metric: tc.metric})
		if err != nil {
			t.Fatal(err)
		}
		queries := chem.SampleQueries(tc.graphs, 6, 5, 1)
		opts := pis.Options{Metric: tc.metric}
		dir := t.TempDir()
		db, err := pis.Create(dir, tc.graphs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		shard := filepath.Join(dir, "shard-000")
		if err := os.WriteFile(filepath.Join(shard, "idx-000001.pisidx3"), image, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err = pis.Open(dir, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		answered := 0
		for _, q := range queries {
			for _, sigma := range tc.sigmas {
				got, want := db.Search(q, sigma).Answers, oracle.SearchNaive(q, sigma).Answers
				if !slices.Equal(got, want) {
					t.Fatalf("%s σ=%v: answers %v, SearchNaive %v", tc.file, sigma, got, want)
				}
				answered += len(want)
			}
		}
		if answered == 0 {
			t.Fatalf("%s: no query has an answer", tc.file)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		sides, err := filepath.Glob(filepath.Join(shard, "idx-*.pisidx3"))
		if err != nil || len(sides) != 1 {
			t.Fatalf("%s: side files %v (%v)", tc.file, sides, err)
		}
		side, err := os.ReadFile(sides[0])
		if err != nil {
			t.Fatal(err)
		}
		// The kind byte opens the header section: past the magic and
		// the section's length.
		if len(side) < 13 || side[12] != tc.kind {
			t.Fatalf("%s: the checkpoint wrote %s without kind %d", tc.file, sides[0], tc.kind)
		}
		// The header's fingerprint-section flag is the byte ahead of
		// the slab offset and length that end its payload.
		if hdrEnd := 12 + int(binary.LittleEndian.Uint32(side[8:])); side[hdrEnd-17] != 0 {
			t.Fatalf("%s: the checkpoint wrote %s with a fingerprint section", tc.file, sides[0])
		}
		db, err = pis.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if got, want := db.Search(q, tc.sigmas[1]).Answers, oracle.SearchNaive(q, tc.sigmas[1]).Answers; !slices.Equal(got, want) {
				t.Fatalf("%s, reopened: answers %v, SearchNaive %v", tc.file, got, want)
			}
		}
		db.Close()
	}
}
