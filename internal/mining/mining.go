// Package mining selects the structure features the fragment-based index
// is built on (PIS paper §4 step 1). Features are label-free skeletons;
// two selection criteria from the literature the paper cites are provided:
//
//   - frequent + discriminative structures in the spirit of gIndex
//     (Yan, Yu, Han, SIGMOD'04): mine frequent skeletons up to a maximum
//     size, then keep a structure only when it is substantially more
//     selective than its already-kept substructures;
//   - path features in the spirit of GraphGrep (Shasha, Wang, Giugno,
//     PODS'02): all frequent simple paths up to a maximum length.
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
	// gIndex-style feature sets are stable under sampling; index postings
	// are always built over the full database afterwards.
	SampleSize int
	// Discriminative enables the gIndex-style filter with ratio Gamma:
	// a structure f is kept only when support(subfeature)/support(f) >=
	// Gamma for its most selective already-kept subfeature. 0 disables.
	Gamma float64
	// PathsOnly restricts features to simple paths (GraphGrep flavor).
	PathsOnly bool
	// MaxFeatures caps the result, keeping the largest, most selective
	// structures (0 = unlimited).
	MaxFeatures int
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
		if f.Edges < opts.MinEdges {
			continue
		}
		if opts.PathsOnly && !isPath(f.Graph) {
			continue
		}
		feats = append(feats, f)
	}
	return postprocess(feats, opts), nil
}

// postprocess applies the ordering, discriminative filter and cap.
func postprocess(feats []Feature, opts Options) []Feature {
	sort.Slice(feats, func(i, j int) bool {
		if feats[i].Edges != feats[j].Edges {
			return feats[i].Edges > feats[j].Edges
		}
		if feats[i].Support != feats[j].Support {
			return feats[i].Support < feats[j].Support
		}
		return feats[i].Key < feats[j].Key
	})
	if opts.Gamma > 0 {
		feats = discriminative(feats, opts.Gamma)
	}
	if opts.MaxFeatures > 0 && len(feats) > opts.MaxFeatures {
		feats = feats[:opts.MaxFeatures]
	}
	return feats
}

// discriminative keeps a feature only when it is Gamma times more
// selective than its most selective kept subfeature, processing small
// structures first so subfeatures are decided before superfeatures.
// Minimum-size features are always kept (they have no indexed subfeature).
func discriminative(feats []Feature, gamma float64) []Feature {
	bySize := append([]Feature(nil), feats...)
	sort.Slice(bySize, func(i, j int) bool { return bySize[i].Edges < bySize[j].Edges })
	kept := map[string]Feature{}
	var out []Feature
	for _, f := range bySize {
		minSub := -1
		graph.EnumerateConnectedSubgraphs(f.Graph, f.Edges-1, func(edges []int32) bool {
			if len(edges) != f.Edges-1 {
				return true
			}
			frag := graph.Fragment{Host: f.Graph, Edges: edges}
			sub, _, _ := frag.Extract()
			code, _ := canon.MinCode(sub) // features are skeletons
			if kf, ok := kept[code.Key()]; ok {
				if minSub < 0 || kf.Support < minSub {
					minSub = kf.Support
				}
			}
			return true
		})
		if minSub >= 0 && float64(minSub) < gamma*float64(f.Support) {
			continue // not discriminative enough over what we already index
		}
		kept[f.Key] = f
		out = append(out, f)
	}
	// Restore the (edges desc, support asc, key) order of Mine.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Edges != out[j].Edges {
			return out[i].Edges > out[j].Edges
		}
		if out[i].Support != out[j].Support {
			return out[i].Support < out[j].Support
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// isPath reports whether g is a simple path: acyclic, max degree 2.
func isPath(g *graph.Graph) bool {
	if g.M() != g.N()-1 {
		return false
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) > 2 {
			return false
		}
	}
	return true
}
