// Package mining selects the structure features the fragment-based index
// is built on (PIS paper §4 step 1): every label-free skeleton of MinEdges
// to MaxEdges edges that is frequent in a sample of the database.
//
// Mining is gSpan pattern growth over label-free skeletons (gspan.go):
// supports are exact, and on molecule-like samples it is faster than
// enumerating and counting every connected subgraph at every size PIS
// indexes (247 vs 351 ms at 5 edges, 1.8 vs 3.8 s at 7, sample of 300)
// at no more peak memory.
package mining

import (
	"fmt"
	"math"
	"sort"

	"pis/internal/canon"
	"pis/internal/graph"
)

// Feature is one selected structure: a label-free skeleton identified by
// its minimum DFS code.
type Feature struct {
	Key     string       // canon code key of the skeleton
	Code    canon.Code   // minimum DFS code
	Graph   *graph.Graph // canonical skeleton (vertex k = DFS id k)
	Edges   int          // number of edges
	Support int          // graphs in the mined sample containing it
}

// Options configures mining.
type Options struct {
	// MaxEdges bounds feature size; the paper indexes fragments of 4-6
	// edges (Fig. 12). Must be >= 1.
	MaxEdges int
	// MinEdges drops tiny features; single edges have no pruning power on
	// carbon-dominated data (paper Example 4) but are legal. Default 1.
	MinEdges int
	// MinSupportFraction keeps a structure only when it appears in at
	// least this fraction of the sampled graphs. Default 0.01.
	MinSupportFraction float64
	// SampleSize mines on the first SampleSize graphs only (0 = all).
	// Frequent feature sets are stable under sampling; index postings
	// are always built over the full database afterwards.
	SampleSize int
}

// normalize fills defaults and validates.
func (o Options) normalize(dbLen int) (Options, error) {
	if o.MaxEdges < 1 {
		return o, fmt.Errorf("mining: MaxEdges must be >= 1, got %d", o.MaxEdges)
	}
	if o.MinEdges < 1 {
		o.MinEdges = 1
	}
	if o.MinEdges > o.MaxEdges {
		return o, fmt.Errorf("mining: MinEdges %d > MaxEdges %d", o.MinEdges, o.MaxEdges)
	}
	if o.MinSupportFraction <= 0 {
		o.MinSupportFraction = 0.01
	}
	if o.SampleSize <= 0 || o.SampleSize > dbLen {
		o.SampleSize = dbLen
	}
	return o, nil
}

// Mine selects features from db according to opts. Features are returned
// sorted by (edges desc, support asc, key) so the most selective, largest
// structures come first.
func Mine(db []*graph.Graph, opts Options) ([]Feature, error) {
	opts, err := opts.normalize(len(db))
	if err != nil {
		return nil, err
	}
	sample := db[:opts.SampleSize]
	minSupport := int(math.Ceil(opts.MinSupportFraction * float64(len(sample))))
	if minSupport < 1 {
		minSupport = 1
	}

	var feats []Feature
	for _, f := range GSpan(sample, GSpanOptions{
		MinSupport: minSupport,
		MaxEdges:   opts.MaxEdges,
		Skeleton:   true,
	}) {
		if f.Edges >= opts.MinEdges {
			feats = append(feats, f)
		}
	}
	return postprocess(feats), nil
}

// postprocess puts features in Mine's order: edges descending, then
// support ascending, then key.
func postprocess(feats []Feature) []Feature {
	sort.Slice(feats, func(i, j int) bool {
		if feats[i].Edges != feats[j].Edges {
			return feats[i].Edges > feats[j].Edges
		}
		if feats[i].Support != feats[j].Support {
			return feats[i].Support < feats[j].Support
		}
		return feats[i].Key < feats[j].Key
	})
	return feats
}
