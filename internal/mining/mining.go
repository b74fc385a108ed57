// Package mining selects the structure features the fragment-based index
// is built on (PIS paper §4 step 1). Select is the database's one
// feature policy: the frequent label-free skeletons of a prefix sample,
// less those fewer than 1 % of the sampled graphs lack; the set may be
// empty. Mine is the frequency miner under it, its parameters free for
// the paper's experiments.
//
// Mining is gSpan pattern growth over label-free skeletons (gspan.go):
// supports are exact, and embeddings live in flat slabs, so it allocates
// per pattern, not per embedding. On the bench corpus's sample of 300
// molecules at 5 edges it makes about 3,400 allocations (21 MiB) in
// 0.11 s and raises the process's peak RSS by 3.5 MiB; at 7 edges it
// takes 0.53 s, where enumerating and counting every connected subgraph
// takes 20 s (2-vCPU Xeon).
package mining

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

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

	feats := GSpan(sample, GSpanOptions{
		MinSupport: minSupport,
		MaxEdges:   opts.MaxEdges,
		Skeleton:   true,
	})
	// GSpan's order is Mine's: dropping the small features keeps it.
	return slices.DeleteFunc(feats, func(f Feature) bool { return f.Edges < opts.MinEdges }), nil
}

// SelectSample is the largest prefix of the database Select mines on.
// Postings always cover the whole database.
const SelectSample = 300

// Select is the database's one feature policy, run once per database at
// its creation: the skeletons of 2 to maxEdges edges held by at least
// 5 % of the first SelectSample graphs, in Mine's order, less those
// fewer than ⌈1 %⌉ of them lack (support ≥ 298 of 300; below 100, those
// all hold). Such a class excludes under 1 % of the sample yet stores a
// pair for nearly every graph: four held 73.8 % of the bench corpora's
// pairs. Answers are exact whichever features exist, so the result may
// be empty: such a database answers by prescreen and verification.
func Select(graphs []*graph.Graph, maxEdges int) ([]Feature, error) {
	feats, err := Mine(graphs, Options{MaxEdges: maxEdges, MinEdges: 2, MinSupportFraction: 0.05, SampleSize: SelectSample})
	if err != nil {
		return nil, err
	}
	sampled := min(len(graphs), SelectSample)
	minLacking := (sampled + 99) / 100 // ⌈1 %⌉ of the sample
	return slices.DeleteFunc(feats, func(f Feature) bool { return sampled-f.Support < minLacking }), nil
}

// postprocess puts features in Mine's order: edges descending, then
// support ascending, then key.
func postprocess(feats []Feature) []Feature {
	slices.SortFunc(feats, func(a, b Feature) int {
		return cmp.Or(cmp.Compare(b.Edges, a.Edges), cmp.Compare(a.Support, b.Support), strings.Compare(a.Key, b.Key))
	})
	return feats
}
