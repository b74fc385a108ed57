// JSON wire format for graphs and the request/response bodies of every
// endpoint. The types are exported so clients (cmd/pisquery -serve-addr,
// examples/serveclient) marshal exactly what the server parses.
//
// readRequest reads every request body. The four bodies that carry graphs
// (SearchRequest, KNNRequest, BatchRequest, InsertRequest) are read
// without reflection by scanRequest when they are written the way
// json.Marshal writes them, in any key order and spacing; any body the
// scanner does not take whole goes to encoding/json, which reads every
// other body too. The scanner takes only bodies that encoding/json decodes
// to the same value without error, so values, refusals and error messages
// are encoding/json's. Responses are written by encoding/json.

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"pis"
	"pis/internal/graph"
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
	edges, ew := graph.Records(g)
	for e, ed := range edges {
		out.Edges[e] = EdgeJSON{U: ed.U, V: ed.V, Label: uint16(ed.Label), Weight: graph.WeightAt(ew, e)}
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
	Index     IndexStatsJSON `json:"index"`
	ElapsedMS float64        `json:"elapsed_ms"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// readRequest decodes one request body into v, which points at a zero
// value: the scanner's value when it takes the whole body, otherwise
// encoding/json's value or error.
func readRequest(b []byte, v any) error {
	if scanRequest(b, v) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// scanRequest decodes b into v, which points at a zero value, when v is
// one of the four bodies that carry graphs and b holds nothing that
// encoding/json treats leniently: every key is a field's tag spelled
// exactly, without escapes, at most once per object; no value is null or a
// string; integers are written without fraction, exponent or the sign of
// -0 and fit their field; and only whitespace follows the value. It
// reports false, leaving *v zero, for anything else.
func scanRequest(b []byte, v any) bool {
	s := scanner{b: b}
	switch v := v.(type) {
	case *SearchRequest:
		return scanInto(&s, v, s.searchRequest)
	case *KNNRequest:
		return scanInto(&s, v, s.knnRequest)
	case *BatchRequest:
		return scanInto(&s, v, s.batchRequest)
	case *InsertRequest:
		return scanInto(&s, v, s.insertRequest)
	}
	return false
}

// scanInto reads one value with read, then requires the body to end.
func scanInto[T any](s *scanner, v *T, read func(*T) bool) bool {
	if read(v) {
		s.space()
		if s.i == len(s.b) {
			return true
		}
	}
	var zero T
	*v = zero
	return false
}

func (s *scanner) searchRequest(r *SearchRequest) bool {
	return s.object(func(key []byte) bool {
		return string(key) == "query" && s.graph(&r.Query) ||
			string(key) == "sigma" && s.float(&r.Sigma)
	})
}

func (s *scanner) knnRequest(r *KNNRequest) bool {
	return s.object(func(key []byte) bool {
		return string(key) == "query" && s.graph(&r.Query) ||
			string(key) == "k" && intField(s, &r.K) ||
			string(key) == "max_sigma" && s.float(&r.MaxSigma)
	})
}

func (s *scanner) batchRequest(r *BatchRequest) bool {
	return s.object(func(key []byte) bool {
		return string(key) == "queries" && list(s, &r.Queries, 0, s.graph) ||
			string(key) == "sigma" && s.float(&r.Sigma) ||
			string(key) == "workers" && intField(s, &r.Workers)
	})
}

func (s *scanner) insertRequest(r *InsertRequest) bool {
	return s.object(func(key []byte) bool {
		return string(key) == "graph" && s.graph(&r.Graph)
	})
}

func (s *scanner) graph(g *GraphJSON) bool {
	return s.object(func(key []byte) bool {
		return string(key) == "vertices" && list(s, &g.Vertices, s.objects(), s.vertex) ||
			string(key) == "edges" && list(s, &g.Edges, s.objects(), s.edge)
	})
}

func (s *scanner) vertex(v *VertexJSON) bool {
	return s.object(func(key []byte) bool {
		return string(key) == "label" && intField(s, &v.Label) ||
			string(key) == "weight" && s.float(&v.Weight)
	})
}

func (s *scanner) edge(e *EdgeJSON) bool {
	return s.object(func(key []byte) bool {
		return string(key) == "u" && intField(s, &e.U) ||
			string(key) == "v" && intField(s, &e.V) ||
			string(key) == "label" && intField(s, &e.Label) ||
			string(key) == "weight" && s.float(&e.Weight)
	})
}

// scanner is a cursor over one request body.
type scanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// take consumes c if it is the next byte.
func (s *scanner) take(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// next skips whitespace and consumes c if it comes next.
func (s *scanner) next(c byte) bool {
	s.space()
	return s.take(c)
}

// object reads one JSON object, reading each value with field(key),
// which reports false for a key it does not know. A key that repeats or
// holds an escape ends the scan. No two keys of one object here share a
// first letter, so a repeat is a repeated first letter.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	var seen uint32 // first letters, bit c-'a'
	for n := 0; !s.next('}'); n++ {
		if n > 0 && !s.next(',') || !s.next('"') {
			return false
		}
		start := s.i
		for s.i < len(s.b) && s.b[s.i] != '"' && s.b[s.i] != '\\' {
			s.i++
		}
		key := s.b[start:s.i]
		if !s.take('"') || !s.next(':') || len(key) == 0 || key[0] < 'a' || key[0] > 'z' || seen&(1<<(key[0]-'a')) != 0 {
			return false
		}
		seen |= 1 << (key[0] - 'a')
		if !field(key) {
			return false
		}
	}
	return true
}

// list reads a JSON array into *out with one elem call per element,
// allocating room for size elements up front; [] is an empty, non-nil
// slice, as encoding/json decodes it.
func list[T any](s *scanner, out *[]T, size int, elem func(*T) bool) bool {
	if !s.next('[') {
		return false
	}
	xs := make([]T, 0, size)
	for i := 0; !s.next(']'); i++ {
		if i > 0 && !s.next(',') {
			return false
		}
		xs = append(xs, *new(T))
		if !elem(&xs[i]) {
			return false
		}
	}
	*out = xs
	return true
}

// objects counts the '{' ahead of the next ']': the length of a list of
// objects without nested arrays, such as vertices or edges. It counts at
// most one per three bytes, the least an element takes ("{},"), so the
// list allocates no more than the bytes could hold.
func (s *scanner) objects() int {
	rest := s.b[s.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return min(bytes.Count(rest, []byte{'{'}), (len(rest)+1)/3)
}

// number reads one literal of the JSON number grammar.
func (s *scanner) number() ([]byte, bool) {
	s.space()
	start := s.i
	s.take('-')
	if !s.take('0') && !s.digits() || s.take('.') && !s.digits() {
		return nil, false
	}
	if s.take('e') || s.take('E') {
		if !s.take('+') {
			s.take('-')
		}
		if !s.digits() {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// float reads a number the way encoding/json does, refusing one outside
// the float64 range.
func (s *scanner) float(f *float64) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	*f = v
	return err == nil
}

// intField reads a plain integer that fits *f. A fraction, an exponent,
// -0 and more than 18 digits are left to encoding/json, which refuses the
// first two and, for an unsigned field, the third.
func intField[T int | int32 | uint16](s *scanner, f *T) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	digits := bytes.TrimPrefix(lit, []byte{'-'})
	if len(digits) > 18 {
		return false
	}
	var n int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return false
		}
		n = n*10 + int64(c-'0')
	}
	if len(digits) < len(lit) {
		n = -n
	}
	if len(digits) < len(lit) && n == 0 || int64(T(n)) != n {
		return false
	}
	*f = T(n)
	return true
}
