// Package server exposes a PIS graph database — of any shard count, or a
// cluster node — over an HTTP JSON API:
//
//	POST   /search       {"query": {...}, "sigma": 2}
//	POST   /knn          {"query": {...}, "k": 5, "max_sigma": 8}
//	POST   /batch        {"queries": [{...}, ...], "sigma": 2}
//	POST   /graphs       {"graph": {...}}    insert, returns the new id
//	DELETE /graphs/{id}  delete one graph (404 when absent)
//	POST   /compact      fold delta + tombstones into fresh indexes
//	POST   /checkpoint   flush state to a fresh snapshot (durable backends)
//	GET    /graphs/{id}  one database graph
//	GET    /stats        index, memo, mutation, and request counters
//	GET    /healthz      liveness probe
//
// The server keeps no result cache of its own: every query runs on the
// backend, where each segment's result memo (internal/segment) answers a
// repeat — keyed by canon.GraphKey, so isomorphic queries in any vertex
// order share an entry — and pays only for the graphs written since,
// whichever node or API call wrote them. Each query request runs against
// the consistent snapshot the backend takes when the request starts. An
// optional in-flight limit bounds concurrent query execution; Run serves
// with graceful shutdown.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pis"
	"pis/internal/canon"
	"pis/internal/obs"
)

// Backend is the database surface the server needs. Both *pis.Database
// and *pis.ClusterNode implement it. Graph ids are stable: an id returned
// by Insert keeps naming the same graph across compactions and is never
// reused after Delete. Durable backends (pis.Create / pis.Open) persist
// every acknowledged mutation; Checkpoint returns pis.ErrNotDurable on
// in-memory ones.
type Backend interface {
	Len() int
	NumShards() int
	Graph(id int32) *pis.Graph
	// Search is the one method no handler calls: the benchmark harness
	// (bench/micro.go) reaches the backend's context-free search through
	// this interface.
	Search(q *pis.Graph, sigma float64) pis.Result
	// The queries honor cancellation and deadlines (including
	// pis.Options.QueryTimeout): the server passes each request's context
	// so a disconnected client or a deadline stops the query's verify
	// workers instead of burning CPU on an unwanted answer. A context
	// carrying an obs.Trace (?trace=1) also collects the search's span
	// tree.
	SearchContext(ctx context.Context, q *pis.Graph, sigma float64) (pis.Result, error)
	SearchBatchContext(ctx context.Context, queries []*pis.Graph, sigma float64, workers int) ([]pis.Result, error)
	SearchKNNContext(ctx context.Context, q *pis.Graph, k int, maxSigma float64) ([]pis.Neighbor, error)
	Stats() pis.Stats // one status read: once a request or a scrape
	Insert(g *pis.Graph) (int32, error)
	Delete(id int32) (bool, error)
	Compact() error
	Checkpoint() error
}

// localBackend is what a backend whose graphs and planners live in this
// process (*pis.Database) adds: the walk over its graphs, which only
// /stats and /compact pay for, and the planners' learned state.
type localBackend interface {
	GraphBytes() int
	PlannerState() []pis.PlannerCell
}

// Config configures a Server. Per-request choices stay with the
// request: /healthz?strict=1 for strict health, and a /batch's workers,
// capped at GOMAXPROCS.
type Config struct {
	// Backend answers the queries (required).
	Backend Backend
	// Deprecated: ignored. The server has no result cache; the segments'
	// result memos answer repeats. The field stays because the benchmark
	// harness (bench/setup.go) still sets it.
	CacheSize int
	// MaxInFlight bounds concurrently executing query requests across
	// /search, /knn, and /batch (0 = unlimited). Excess requests wait in
	// a bounded admission queue; a request whose context is canceled
	// while waiting gets 503.
	MaxInFlight int
	// MaxQueue bounds how many query requests may wait for an in-flight
	// slot (only meaningful with MaxInFlight > 0). When the queue is
	// full, requests are shed immediately with 429 and a Retry-After
	// header instead of piling up. 0 picks the default 4×MaxInFlight;
	// negative disables queueing entirely (no free slot = instant 429).
	MaxQueue int
	// QueueWait caps how long an admitted request may wait in the queue
	// before it is shed with 429 (0 = wait as long as the client does).
	QueueWait time.Duration
	// ShutdownTimeout is how long Run drains in-flight requests after
	// its context is canceled before forcibly closing connections
	// (0 = the default 10s).
	ShutdownTimeout time.Duration
	// SlowQueryThreshold logs any /search or /knn request at or over
	// this duration through Logger and counts it in
	// pis_slow_queries_total (0 disables the slow-query log).
	SlowQueryThreshold time.Duration
	// Logger receives slow-query records (nil = slog.Default()).
	Logger *slog.Logger
	// QueryLogSize is the /debug/queries ring capacity in queries
	// (0 = 256; negative keeps the minimum of 1).
	QueryLogSize int
}

// maxRequestBody bounds a request body; a /batch of thousands of
// molecule-sized queries fits comfortably.
const maxRequestBody = 32 << 20

// endpointMetrics accumulates request timing for one route.
type endpointMetrics struct {
	Count   int64
	Errors  int64
	TotalNS int64
}

// Server is an http.Handler serving the PIS query API.
type Server struct {
	backend  Backend
	cfg      Config
	adm      *admission
	mux      *http.ServeMux
	start    time.Time
	qlog     *obs.QueryLog
	logger   *slog.Logger
	inflight atomic.Int64

	mu        sync.Mutex
	metrics   map[string]*endpointMetrics
	mutations MutationStatsJSON
	planner   PlannerStatsJSON
}

// admission gates query execution: at most cap(slots) requests run and
// at most cap(queue) more wait for a slot. Everything beyond that is
// shed immediately — a saturated server answers 429 in microseconds
// instead of accumulating an unbounded backlog that would finish long
// after every client gave up.
type admission struct {
	slots chan struct{}
	queue chan struct{} // tokens for the right to wait on slots
	wait  time.Duration // 0 = wait as long as the request context lives
}

// admissionVerdict says what happened to a request at the gate.
type admissionVerdict int

const (
	admitted      admissionVerdict = iota
	shedQueueFull                  // queue at capacity: 429
	shedQueueWait                  // waited longer than QueueWait: 429
	abortedQueued                  // request context canceled while queued: 503
)

// acquire obtains an execution slot, possibly waiting in the queue.
// On admitted the caller must call release.
func (a *admission) acquire(ctx context.Context) admissionVerdict {
	select {
	case a.slots <- struct{}{}:
		return admitted
	default:
	}
	select {
	case a.queue <- struct{}{}:
		defer func() { <-a.queue }()
	default:
		return shedQueueFull
	}
	var timeout <-chan time.Time
	if a.wait > 0 {
		t := time.NewTimer(a.wait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case a.slots <- struct{}{}:
		return admitted
	case <-timeout:
		return shedQueueWait
	case <-ctx.Done():
		return abortedQueued
	}
}

func (a *admission) release() { <-a.slots }

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("server: Backend is required")
	}
	qlogSize := cfg.QueryLogSize
	if qlogSize == 0 {
		qlogSize = defaultQueryLogSize
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{
		backend: cfg.Backend,
		cfg:     cfg,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		qlog:    obs.NewQueryLog(qlogSize),
		logger:  logger,
		metrics: make(map[string]*endpointMetrics),
	}
	if cfg.MaxInFlight > 0 {
		queueCap := cfg.MaxQueue
		switch {
		case queueCap == 0:
			queueCap = 4 * cfg.MaxInFlight
		case queueCap < 0:
			queueCap = 0
		}
		s.adm = &admission{
			slots: make(chan struct{}, cfg.MaxInFlight),
			queue: make(chan struct{}, queueCap),
			wait:  cfg.QueueWait,
		}
	}
	s.mux.HandleFunc("POST /search", s.instrument("search", true, s.handleSearch))
	s.mux.HandleFunc("POST /knn", s.instrument("knn", true, s.handleKNN))
	s.mux.HandleFunc("POST /batch", s.instrument("batch", true, s.handleBatch))
	s.mux.HandleFunc("GET /graphs/{id}", s.instrument("graphs", false, s.handleGraph))
	s.mux.HandleFunc("POST /graphs", s.instrument("insert", false, s.handleInsert))
	s.mux.HandleFunc("DELETE /graphs/{id}", s.instrument("delete", false, s.handleDelete))
	s.mux.HandleFunc("POST /compact", s.instrument("compact", true, s.handleCompact))
	s.mux.HandleFunc("POST /checkpoint", s.instrument("checkpoint", true, s.handleCheckpoint))
	s.mux.HandleFunc("GET /stats", s.instrument("stats", false, s.handleStats))
	s.mux.Handle("GET /metrics", MetricsHandler())
	s.mux.HandleFunc("GET /debug/queries", s.instrument("debug_queries", false, s.handleDebugQueries))
	// Liveness stays HTTP 200 by default even when the store is
	// poisoned: the process is healthy and still answers queries; the
	// degraded body tells orchestrators (and humans) that mutations are
	// rejected and the node needs disk attention, without tripping
	// restart loops that would lose the in-memory delta. Readiness-style
	// probes that should pull a degraded node out of rotation opt into
	// 503 with ?strict=1.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		strict := r.URL.Query().Get("strict") == "1"
		st := s.backend.Stats()
		if c := st.Cluster; c != nil && c.CoveredShards < c.Shards {
			// Some shard has no live replica: queries are failing with
			// 503 right now, so the node is degraded even though the
			// process itself is healthy.
			if strict {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			fmt.Fprintf(w, "degraded: %d of %d shards have no live replica (%d/%d peers up)\n",
				c.Shards-c.CoveredShards, c.Shards, c.PeersUp, c.Peers)
			return
		}
		if d := st.Durability; d.Poisoned {
			if strict {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			fmt.Fprintf(w, "degraded: store poisoned (read-only): %s\n", d.PoisonReason)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	s.registerGauges()
	return s, nil
}

// ServeHTTP implements http.Handler. Every request runs under a panic
// barrier: a panicking handler (or a backend bug surfacing through one)
// becomes a 500 response and a pis_panics_total increment instead of
// killing the process and every other in-flight query with it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if v == http.ErrAbortHandler { //nolint:errorlint // sentinel by identity, per net/http
			panic(v)
		}
		mHTTPPanics.Inc()
		s.logger.Error("panic in request handler", "method", r.Method, "url", r.URL.Path, "panic", fmt.Sprint(v))
		// Best effort: if the handler already wrote a response this is a
		// no-op superfluous WriteHeader, which net/http just logs.
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
	}()
	s.mux.ServeHTTP(w, r)
}

// Run serves on addr until ctx is canceled, then shuts down gracefully,
// draining in-flight requests for up to Config.ShutdownTimeout (default
// 10s). If the drain deadline passes with requests still running, they
// are logged and their connections forcibly closed. It returns nil on a
// clean shutdown.
func (s *Server) Run(ctx context.Context, addr string) error {
	hs := &http.Server{Addr: addr, Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		timeout := s.cfg.ShutdownTimeout
		if timeout <= 0 {
			timeout = 10 * time.Second
		}
		sctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		err := hs.Shutdown(sctx)
		if err != nil {
			s.logger.Warn("graceful shutdown timed out; closing connections",
				"timeout", timeout, "inflight", s.inflight.Load(), "err", err)
			hs.Close()
		}
		return err
	}
}

// statusWriter captures the response status for error counting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request timing and, when limited is
// true, the in-flight semaphore.
func (s *Server) instrument(name string, limited bool, h http.HandlerFunc) http.HandlerFunc {
	// Pre-resolved obs children: the per-request cost is two atomic adds
	// and one histogram observe, no vec-lock lookups.
	obsReqs := httpRequests.With(name)
	obsErrs := httpErrors.With(name)
	obsLat := httpSeconds.With(name)
	return func(w http.ResponseWriter, r *http.Request) {
		if limited && s.adm != nil {
			switch s.adm.acquire(r.Context()) {
			case admitted:
				defer s.adm.release()
			case shedQueueFull:
				mShed.Inc()
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, "server overloaded, admission queue full")
				return
			case shedQueueWait:
				mShed.Inc()
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, "server overloaded, queue wait exceeded")
				return
			case abortedQueued:
				writeError(w, http.StatusServiceUnavailable, "server overloaded, request canceled while queued")
				return
			}
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		s.mu.Lock()
		m := s.metrics[name]
		if m == nil {
			m = &endpointMetrics{}
			s.metrics[name] = m
		}
		m.Count++
		m.TotalNS += elapsed.Nanoseconds()
		if sw.status >= 400 {
			m.Errors++
		}
		s.mu.Unlock()
		obsReqs.Inc()
		obsLat.Observe(elapsed.Seconds())
		if sw.status >= 400 {
			obsErrs.Inc()
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// bodyPool recycles request-body buffers. One that grew past
// maxPooledBody (a large /batch or insert) is left to the collector, so
// the pool holds only small buffers between requests.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

// decodeBody reads the whole request body, at most maxRequestBody bytes
// (413 beyond), and parses it into v with readRequest.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBody))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body larger than %d bytes", tooLarge.Limit))
		return false
	}
	if err == nil {
		err = readRequest(buf.Bytes(), v)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return false
	}
	return true
}

// decodeQuery converts and validates one wire-format query graph.
func decodeQuery(w http.ResponseWriter, gj GraphJSON) (*pis.Graph, bool) {
	q, err := DecodeGraph(gj)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid query graph: "+err.Error())
		return nil, false
	}
	if q.N() == 0 || !q.Connected() {
		writeError(w, http.StatusBadRequest, "query graph must be non-empty and connected")
		return nil, false
	}
	return q, true
}

// searchResult converts a raw result to its wire form and records its
// plan; /search and /batch share it so both routes always agree.
func (s *Server) searchResult(r pis.Result) SearchResponse {
	resp := SearchResponse{
		Answers:   r.Answers,
		Distances: r.Distances,
		Stats:     encodeStats(r.Stats),
	}
	if resp.Distances == nil {
		resp.Distances = []float64{}
	}
	s.recordPlan(r.Stats)
	return resp
}

// recordPlan folds one query's planner counters into the /stats
// aggregates.
func (s *Server) recordPlan(st pis.SearchStats) {
	s.mu.Lock()
	s.planner.Plans++
	s.planner.QueryFragments += int64(st.QueryFragments)
	s.planner.UsedFragments += int64(st.UsedFragments)
	s.planner.ExpandedFragments += int64(st.ExpandedFragments)
	s.planner.PlanMS += float64(st.PlanTime.Microseconds()) / 1000
	s.mu.Unlock()
}

// writeQueryError maps a failed query's error to an HTTP status: a
// deadline is the server's fault under load (504), quorum loss on a
// cluster backend means no live replica could answer some shard (503,
// retryable once a replica returns), a canceled context means the
// client hung up or the server is shedding (503), anything else is a
// plain 500.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, pis.ErrDeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "query deadline exceeded: "+err.Error())
	case errors.Is(err, pis.ErrUnavailable):
		writeError(w, http.StatusServiceUnavailable, "cluster unavailable: "+err.Error())
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "query canceled: "+err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "query failed: "+err.Error())
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Sigma < 0 {
		writeError(w, http.StatusBadRequest, "sigma must be >= 0")
		return
	}
	q, ok := decodeQuery(w, req.Query)
	if !ok {
		return
	}
	start := time.Now()
	ctx := r.Context()
	var tr *obs.Trace
	if traceRequested(r) {
		ctx, tr = obs.WithTrace(ctx)
	}
	res, err := s.backend.SearchContext(ctx, q, req.Sigma)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	resp := s.searchResult(res)
	if tr != nil {
		resp.Trace = tr.Root()
	}
	resp.ElapsedMS = msSince(start)
	s.observeQuery("search", q, req.Sigma, len(resp.Answers), resp.ElapsedMS, resp.Trace)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var req KNNRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.K <= 0 {
		writeError(w, http.StatusBadRequest, "k must be >= 1")
		return
	}
	if req.MaxSigma <= 0 {
		writeError(w, http.StatusBadRequest, "max_sigma must be > 0")
		return
	}
	q, ok := decodeQuery(w, req.Query)
	if !ok {
		return
	}
	start := time.Now()
	ns, err := s.backend.SearchKNNContext(r.Context(), q, req.K, req.MaxSigma)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	resp := KNNResponse{Neighbors: make([]NeighborJSON, len(ns))}
	for i, n := range ns {
		resp.Neighbors[i] = NeighborJSON{ID: n.ID, Distance: n.Distance}
	}
	resp.ElapsedMS = msSince(start)
	s.observeQuery("knn", q, req.MaxSigma, len(resp.Neighbors), resp.ElapsedMS, nil)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Sigma < 0 {
		writeError(w, http.StatusBadRequest, "sigma must be >= 0")
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "queries must be non-empty")
		return
	}
	queries := make([]*pis.Graph, len(req.Queries))
	for i, gj := range req.Queries {
		q, ok := decodeQuery(w, gj)
		if !ok {
			return
		}
		queries[i] = q
	}
	start := time.Now()

	// One search per distinct query however often the batch repeats it,
	// in any vertex order: every query shares the batch's σ, so the
	// canonical key alone tells repeats apart. The key is memoised on the
	// graph, so the segments' memo lookups reuse it.
	var distinct []*pis.Graph
	of := make(map[string]int) // key -> position in distinct
	from := make([]int, len(queries))
	for i, q := range queries {
		key := canon.GraphKey(q)
		j, seen := of[key]
		if !seen {
			j = len(distinct)
			of[key] = j
			distinct = append(distinct, q)
		}
		from[i] = j
	}
	// The batch holds one admission slot, so it runs at most GOMAXPROCS
	// queries at once however many workers it asks for.
	workers := runtime.GOMAXPROCS(0)
	if req.Workers > 0 {
		workers = min(req.Workers, workers)
	}
	rs, err := s.backend.SearchBatchContext(r.Context(), distinct, req.Sigma, workers)
	if err != nil {
		// The batch was cut short; none of its (possibly partial) results
		// may be returned as if complete.
		writeQueryError(w, err)
		return
	}
	executed := make([]SearchResponse, len(rs))
	for j, r := range rs {
		executed[j] = s.searchResult(r)
	}
	results := make([]SearchResponse, len(queries))
	for i, j := range from {
		results[i] = executed[j]
	}
	elapsed := msSince(start)
	s.observeQuery("batch", nil, req.Sigma, len(results), elapsed, nil)
	writeJSON(w, http.StatusOK, BatchResponse{Results: results, ElapsedMS: elapsed})
}

// pathID parses the {id} path segment as a graph id, rejecting values
// outside int32 (a plain int cast would wrap 2^32 to 0 and address the
// wrong graph).
func pathID(r *http.Request) (int32, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil || id < 0 {
		return 0, false
	}
	return int32(id), true
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(r)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no graph %q", r.PathValue("id")))
		return
	}
	g := s.backend.Graph(id)
	if g == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no live graph %d", id))
		return
	}
	writeJSON(w, http.StatusOK, EncodeGraph(g))
}

// countMutation counts one accepted insert or delete.
func (s *Server) countMutation(kind *int64) {
	s.mu.Lock()
	*kind++
	s.mu.Unlock()
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if !decodeBody(w, r, &req) {
		return
	}
	g, err := DecodeGraph(req.Graph)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid graph: "+err.Error())
		return
	}
	if g.N() == 0 {
		writeError(w, http.StatusBadRequest, "graph must have at least one vertex")
		return
	}
	id, err := s.backend.Insert(g)
	if err != nil && id < 0 {
		// The mutation was rejected outright (a durable backend could not
		// log it); nothing changed.
		if errors.Is(err, pis.ErrStorePoisoned) {
			writeError(w, http.StatusServiceUnavailable, "database is read-only after a disk fault: "+err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, "insert failed: "+err.Error())
		return
	}
	s.countMutation(&s.mutations.Inserts)
	resp := InsertResponse{ID: id, Graphs: s.backend.Len()}
	if err != nil {
		// The insert itself succeeded; only the automatic compaction
		// failed. Report it without failing the request — answers stay
		// exact with the delta in place.
		resp.Warning = err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(r)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no graph %q", r.PathValue("id")))
		return
	}
	ok, err := s.backend.Delete(id)
	if err != nil {
		if errors.Is(err, pis.ErrStorePoisoned) {
			writeError(w, http.StatusServiceUnavailable, "database is read-only after a disk fault: "+err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, "delete failed: "+err.Error())
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no live graph %d", id))
		return
	}
	s.countMutation(&s.mutations.Deletes)
	writeJSON(w, http.StatusOK, DeleteResponse{ID: id, Graphs: s.backend.Len()})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if err := s.backend.Compact(); err != nil {
		writeError(w, http.StatusInternalServerError, "compaction failed: "+err.Error())
		return
	}
	// Compaction changes representation only: no answer and no id moves,
	// so the segments' result memos stay.
	s.mu.Lock()
	s.mutations.Compactions++
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, CompactResponse{
		Graphs:    s.backend.Len(),
		Index:     s.indexJSON(s.backend.Stats().Index),
		ElapsedMS: msSince(start),
	})
}

// IndexStatsJSON is the "index" object of /stats and /compact: the summed
// index figures, and the heap the graphs hold (0 on a cluster node).
type IndexStatsJSON struct {
	pis.IndexStats
	GraphBytes int `json:"graph_bytes"`
}

func (s *Server) indexJSON(ix pis.IndexStats) IndexStatsJSON {
	out := IndexStatsJSON{IndexStats: ix}
	if lb, ok := s.backend.(localBackend); ok {
		out.GraphBytes = lb.GraphBytes()
	}
	return out
}

// handleCheckpoint flushes the backend's state to a fresh snapshot. It
// does not change any answer.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if err := s.backend.Checkpoint(); err != nil {
		if errors.Is(err, pis.ErrNotDurable) {
			writeError(w, http.StatusConflict, "database is not durable: "+err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, "checkpoint failed: "+err.Error())
		return
	}
	s.mu.Lock()
	s.mutations.Checkpoints++
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, CheckpointResponse{
		Durability: encodeDurability(s.backend.Stats().Durability),
		ElapsedMS:  msSince(start),
	})
}

// CheckpointResponse is the body of POST /checkpoint.
type CheckpointResponse struct {
	Durability *DurabilityStatsJSON `json:"durability"`
	ElapsedMS  float64              `json:"elapsed_ms"`
}

// DurabilityStatsJSON is the wire form of pis.DurabilityStats; it is
// omitted from /stats entirely for in-memory backends.
type DurabilityStatsJSON struct {
	// WALRecords/WALBytes: acknowledged mutations not yet snapshotted.
	WALRecords int64 `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// SnapshotSeq and checkpoint history of this process.
	SnapshotSeq        uint64  `json:"snapshot_seq"`
	Checkpoints        int64   `json:"checkpoints"`
	LastCheckpointUnix float64 `json:"last_checkpoint_unix,omitempty"` // seconds; absent before the first
	// What recovery found when the database was opened.
	ReplayedRecords      int   `json:"recovery_replayed_records"`
	RecoveryDroppedBytes int64 `json:"recovery_dropped_bytes"`
	// Poisoned marks a store that hit a disk fault and went read-only;
	// PoisonReason describes the first fault.
	Poisoned     bool   `json:"poisoned,omitempty"`
	PoisonReason string `json:"poison_reason,omitempty"`
}

func encodeDurability(d pis.DurabilityStats) *DurabilityStatsJSON {
	if !d.Durable {
		return nil
	}
	out := &DurabilityStatsJSON{
		WALRecords:           d.WALRecords,
		WALBytes:             d.WALBytes,
		SnapshotSeq:          d.SnapshotSeq,
		Checkpoints:          d.Checkpoints,
		ReplayedRecords:      d.ReplayedRecords,
		RecoveryDroppedBytes: d.RecoveryDroppedBytes,
		Poisoned:             d.Poisoned,
		PoisonReason:         d.PoisonReason,
	}
	if !d.LastCheckpoint.IsZero() {
		out.LastCheckpointUnix = float64(d.LastCheckpoint.UnixMilli()) / 1000
	}
	return out
}

// MutationStatsJSON reports accepted mutations since startup.
type MutationStatsJSON struct {
	Inserts     int64 `json:"inserts"`
	Deletes     int64 `json:"deletes"`
	Compactions int64 `json:"compactions"`
	Checkpoints int64 `json:"checkpoints"`
}

// PlannerStatsJSON aggregates the query planner's work across every
// /search and /batch query since startup. For a sharded backend the
// per-query fragment counters sum across shards, so the expanded/used
// ratio reads as the fleet-wide fraction of σ range queries the planner
// actually paid for.
type PlannerStatsJSON struct {
	// Plans counts executed queries; a shard that answered from its
	// result memo planned nothing and adds no fragments.
	Plans int64 `json:"plans"`
	// QueryFragments/UsedFragments/ExpandedFragments trace the fragment
	// funnel: materialized, materialized in a class not present in every
	// graph, and range-expanded. What the planner skipped is the counter
	// pis_planner_range_queries_skipped_total in /metrics, where a class
	// skipped whole, never materialized, counts once.
	QueryFragments    int64 `json:"query_fragments"`
	UsedFragments     int64 `json:"used_fragments"`
	ExpandedFragments int64 `json:"expanded_fragments"`
	// PlanMS is the total time spent scoring and ordering fragments.
	PlanMS float64 `json:"plan_ms"`
	// LearnedSurvival is what the planner has learned about each feature
	// class's σ range query (pis.PlannerCell), by shard, class and σ
	// bucket; absent for a cluster backend, whose planners live on the
	// shard nodes.
	LearnedSurvival []pis.PlannerCell `json:"learned_survival,omitempty"`
}

// MemoStatsJSON reports the result memos of this process's segments (the
// pis_result_memo_* metrics; on a cluster node, its own shard replicas):
// lookups by outcome, one per segment read, the graphs reads verified to
// catch up with inserts, and the bytes held.
type MemoStatsJSON struct {
	Hits            int64 `json:"hits"`
	Covered         int64 `json:"covered"`
	Misses          int64 `json:"misses"`
	Fallbacks       int64 `json:"fallbacks"`
	RefreshedGraphs int64 `json:"refreshed_graphs"`
	Bytes           int64 `json:"bytes"`
}

// CompactionStatsJSON reports what the compactions of this process's
// segments did (the pis_compaction_*_total metrics): surviving graphs
// whose index entries were carried over from the outgoing index, and
// surviving delta graphs whose fragments were enumerated.
type CompactionStatsJSON struct {
	CarriedGraphs    int64 `json:"carried_graphs"`
	EnumeratedGraphs int64 `json:"enumerated_graphs"`
}

// EndpointStatsJSON reports request timing for one route.
type EndpointStatsJSON struct {
	Count   int64   `json:"count"`
	Errors  int64   `json:"errors"`
	TotalMS float64 `json:"total_ms"`
	AvgMS   float64 `json:"avg_ms"`
}

// ServerStats is the body of GET /stats.
type ServerStats struct {
	Graphs        int                          `json:"graphs"`
	Shards        int                          `json:"shards"`
	Index         IndexStatsJSON               `json:"index"`
	Memo          MemoStatsJSON                `json:"memo"`
	Planner       PlannerStatsJSON             `json:"planner"`
	Mutations     MutationStatsJSON            `json:"mutations"`
	Compaction    CompactionStatsJSON          `json:"compaction"`
	Durability    *DurabilityStatsJSON         `json:"durability,omitempty"`
	Cluster       *pis.ClusterStats            `json:"cluster,omitempty"`
	Requests      map[string]EndpointStatsJSON `json:"requests"`
	InFlightLimit int                          `json:"inflight_limit,omitempty"`
	UptimeMS      float64                      `json:"uptime_ms"`
	Observability ObservabilityJSON            `json:"observability"`
	Runtime       RuntimeStatsJSON             `json:"runtime"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	reg := obs.Default()
	lookups := reg.CounterVec("pis_result_memo_lookups_total", "", "outcome")
	st := s.backend.Stats()
	out := ServerStats{
		Graphs: s.backend.Len(),
		Shards: s.backend.NumShards(),
		Index:  s.indexJSON(st.Index),
		Memo: MemoStatsJSON{
			Hits:            lookups.Value("hit"),
			Covered:         lookups.Value("covered"),
			Misses:          lookups.Value("miss"),
			Fallbacks:       lookups.Value("fallback"),
			RefreshedGraphs: reg.Counter("pis_result_memo_refreshed_graphs_total", "").Value(),
			Bytes:           int64(reg.Gauge("pis_result_memo_bytes", "").Value()),
		},
		Compaction: CompactionStatsJSON{
			CarriedGraphs:    reg.Counter("pis_compaction_carried_graphs_total", "").Value(),
			EnumeratedGraphs: reg.Counter("pis_compaction_enumerated_graphs_total", "").Value(),
		},
		Durability:    encodeDurability(st.Durability),
		Cluster:       st.Cluster,
		Requests:      make(map[string]EndpointStatsJSON),
		InFlightLimit: s.cfg.MaxInFlight,
		UptimeMS:      msSince(s.start),
		Observability: s.observabilityStats(),
		Runtime:       obs.ReadProcessStats(),
	}
	s.mu.Lock()
	out.Mutations = s.mutations
	out.Planner = s.planner
	for name, m := range s.metrics {
		e := EndpointStatsJSON{
			Count:   m.Count,
			Errors:  m.Errors,
			TotalMS: float64(m.TotalNS) / 1e6,
		}
		if m.Count > 0 {
			e.AvgMS = e.TotalMS / float64(m.Count)
		}
		out.Requests[name] = e
	}
	s.mu.Unlock()
	if lb, ok := s.backend.(localBackend); ok {
		out.Planner.LearnedSurvival = lb.PlannerState()
	}
	writeJSON(w, http.StatusOK, out)
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}
