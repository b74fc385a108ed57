// JSON wire format for graphs and the request/response bodies of every
// endpoint. The types are exported so clients (cmd/pisquery -serve-addr,
// examples/serveclient) marshal exactly what the server parses.

package server

import (
	"fmt"

	"pis"
)

// VertexJSON is one labeled (optionally weighted) vertex.
type VertexJSON struct {
	Label  uint16  `json:"label"`
	Weight float64 `json:"weight,omitempty"`
}

// EdgeJSON is one labeled (optionally weighted) undirected edge.
type EdgeJSON struct {
	U      int32   `json:"u"`
	V      int32   `json:"v"`
	Label  uint16  `json:"label"`
	Weight float64 `json:"weight,omitempty"`
}

// GraphJSON is the wire form of a labeled undirected graph.
type GraphJSON struct {
	Vertices []VertexJSON `json:"vertices"`
	Edges    []EdgeJSON   `json:"edges"`
}

// EncodeGraph converts a graph to its wire form.
func EncodeGraph(g *pis.Graph) GraphJSON {
	out := GraphJSON{
		Vertices: make([]VertexJSON, g.N()),
		Edges:    make([]EdgeJSON, g.M()),
	}
	for v := 0; v < g.N(); v++ {
		out.Vertices[v] = VertexJSON{Label: uint16(g.VLabelAt(v)), Weight: g.VWeightAt(v)}
	}
	for e := 0; e < g.M(); e++ {
		ed := g.EdgeAt(e)
		out.Edges[e] = EdgeJSON{U: ed.U, V: ed.V, Label: uint16(ed.Label), Weight: ed.Weight}
	}
	return out
}

// DecodeGraph converts the wire form back to a graph, validating edge
// endpoints.
func DecodeGraph(gj GraphJSON) (*pis.Graph, error) {
	n := len(gj.Vertices)
	b := pis.NewGraphBuilder(n, len(gj.Edges))
	for _, v := range gj.Vertices {
		b.AddWeightedVertex(pis.VLabel(v.Label), v.Weight)
	}
	for _, e := range gj.Edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("edge (%d,%d) out of range for %d vertices", e.U, e.V, n)
		}
		b.AddWeightedEdge(e.U, e.V, pis.ELabel(e.Label), e.Weight)
	}
	return b.Build()
}

// SearchRequest is the body of POST /search.
type SearchRequest struct {
	Query GraphJSON `json:"query"`
	Sigma float64   `json:"sigma"`
}

// StatsJSON reports the per-stage counters of one query in wire form
// (durations in milliseconds). The fragment and candidate counters
// double as the request's plan summary: of query_fragments materialized,
// used_fragments lie in a class not present in every graph and
// expanded_fragments actually ran their σ range query. The candidate counters follow the stage order: of
// struct_candidates (posting intersection) plus the unindexed live delta
// graphs, prescreen_rejects were refuted by the prescreen
// (invariant_rejects of them by the graph invariants); range_candidates
// and dist_candidates are what the σ range queries and the partition
// bound left of the indexed rest; every graph that reached verification
// is counted once in verify_cache_hits or verified. memo_hit marks a
// search answered from a segment's result memo, a hit or covered (on a
// sharded backend: by at least one shard): verify_cache_hits then counts the answers carried
// over, verified and refreshed the graphs inserted since that were
// verified to catch up, and the filter counters of those shards are zero.
type StatsJSON struct {
	QueryFragments    int  `json:"query_fragments"`
	UsedFragments     int  `json:"used_fragments"`
	ExpandedFragments int  `json:"expanded_fragments"`
	PartitionSize     int  `json:"partition_size"`
	StructCandidates  int  `json:"struct_candidates"`
	RangeCandidates   int  `json:"range_candidates"`
	DistCandidates    int  `json:"dist_candidates"`
	PrescreenRejects  int  `json:"prescreen_rejects"`
	InvariantRejects  int  `json:"invariant_rejects"`
	VerifyCacheHits   int  `json:"verify_cache_hits"`
	Verified          int  `json:"verified"`
	VerifyNodes       int  `json:"verify_nodes"`
	MemoHit           bool `json:"memo_hit"`
	Refreshed         int  `json:"refreshed"`
	// plan_ms is the planning slice of filter_ms (not a disjoint
	// stage); filter_ms + verify_ms is the full instrumented time.
	PlanMS   float64 `json:"plan_ms"`
	FilterMS float64 `json:"filter_ms"`
	VerifyMS float64 `json:"verify_ms"`
}

func encodeStats(s pis.SearchStats) StatsJSON {
	return StatsJSON{
		QueryFragments:    s.QueryFragments,
		UsedFragments:     s.UsedFragments,
		ExpandedFragments: s.ExpandedFragments,
		PartitionSize:     s.PartitionSize,
		StructCandidates:  s.StructCandidates,
		RangeCandidates:   s.RangeCandidates,
		DistCandidates:    s.DistCandidates,
		PrescreenRejects:  s.PrescreenRejects,
		InvariantRejects:  s.InvariantRejects,
		VerifyCacheHits:   s.VerifyCacheHits,
		Verified:          s.Verified,
		VerifyNodes:       s.VerifyNodes,
		MemoHit:           s.MemoHits > 0,
		Refreshed:         s.Refreshed,
		PlanMS:            float64(s.PlanTime.Microseconds()) / 1000,
		FilterMS:          float64(s.FilterTime.Microseconds()) / 1000,
		VerifyMS:          float64(s.VerifyTime.Microseconds()) / 1000,
	}
}

// SearchResponse is the body returned by POST /search and, per query, by
// POST /batch.
type SearchResponse struct {
	Answers   []int32   `json:"answers"`
	Distances []float64 `json:"distances"`
	Stats     StatsJSON `json:"stats"`
	// Cached is always false: the server keeps no result cache, and a
	// repeat answered from the segments' result memos says so in
	// stats.memo_hit. The field stays because the benchmark harness
	// (bench/replay.go) still decodes it.
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Trace is the per-stage span tree, present only when the request
	// asked for it with ?trace=1.
	Trace *pis.TraceSpan `json:"trace,omitempty"`
}

// KNNRequest is the body of POST /knn.
type KNNRequest struct {
	Query    GraphJSON `json:"query"`
	K        int       `json:"k"`
	MaxSigma float64   `json:"max_sigma"`
}

// NeighborJSON is one kNN result.
type NeighborJSON struct {
	ID       int32   `json:"id"`
	Distance float64 `json:"distance"`
}

// KNNResponse is the body returned by POST /knn.
type KNNResponse struct {
	Neighbors []NeighborJSON `json:"neighbors"`
	ElapsedMS float64        `json:"elapsed_ms"`
}

// BatchRequest is the body of POST /batch.
type BatchRequest struct {
	Queries []GraphJSON `json:"queries"`
	Sigma   float64     `json:"sigma"`
	// Workers bounds concurrent queries within the batch, at most
	// GOMAXPROCS (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// BatchResponse is the body returned by POST /batch; Results align with
// Queries.
type BatchResponse struct {
	Results   []SearchResponse `json:"results"`
	ElapsedMS float64          `json:"elapsed_ms"`
}

// InsertRequest is the body of POST /graphs.
type InsertRequest struct {
	Graph GraphJSON `json:"graph"`
}

// InsertResponse is the body returned by POST /graphs. ID is the new
// graph's stable id; Graphs is the live graph count afterwards. Warning
// is set when the insert succeeded but an automatic compaction failed
// (answers remain exact; the delta is retained).
type InsertResponse struct {
	ID      int32  `json:"id"`
	Graphs  int    `json:"graphs"`
	Warning string `json:"warning,omitempty"`
}

// DeleteResponse is the body returned by DELETE /graphs/{id}.
type DeleteResponse struct {
	ID     int32 `json:"id"`
	Graphs int   `json:"graphs"`
}

// CompactResponse is the body returned by POST /compact.
type CompactResponse struct {
	Graphs    int            `json:"graphs"`
	Index     pis.IndexStats `json:"index"`
	ElapsedMS float64        `json:"elapsed_ms"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}
