// Server-side observability: global HTTP metrics, the Prometheus
// exposition endpoint, the /debug/queries ring buffer, and the
// slow-query log. Each Server counts the requests, planner and mutations
// blocks of /stats itself; the obs registry is the shared, process-wide
// view that pisbench and every Server instance feed alike.

package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"pis"
	"pis/internal/obs"
)

var (
	httpRequests = obs.Default().CounterVec(
		"pis_http_requests_total",
		"HTTP requests completed, by route.",
		"route")
	httpErrors = obs.Default().CounterVec(
		"pis_http_errors_total",
		"HTTP requests answered with status >= 400, by route.",
		"route")
	httpSeconds = obs.Default().HistogramVec(
		"pis_http_request_seconds",
		"HTTP request latency, by route.",
		"route", obs.LatencyBuckets)
	mSlowQueries = obs.Default().Counter(
		"pis_slow_queries_total",
		"Queries exceeding the configured slow-query threshold.")
	mTracedQueries = obs.Default().Counter(
		"pis_traced_queries_total",
		"Queries that returned an inline span tree (?trace=1).")
	mShed = obs.Default().Counter(
		"pis_shed_total",
		"Query requests shed by admission control (queue full or queue wait exceeded), answered 429.")
	// Same family as core's verify-site child; re-registration with an
	// empty help string reuses the existing vec.
	mHTTPPanics = obs.Default().CounterVec("pis_panics_total", "", "site").With("http")
)

// defaultQueryLogSize is the /debug/queries ring capacity when
// Config.QueryLogSize is 0.
const defaultQueryLogSize = 256

// traceRequested reports whether the request asked for an inline span
// tree (?trace=1).
func traceRequested(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true":
		return true
	}
	return false
}

// registerGauges (re-)binds the scrape-time gauges to this server's
// backend as one group: a scrape reads its status once and walks no
// graph. With several servers in one process the most recently
// constructed one owns the gauges; counters and histograms are shared.
func (s *Server) registerGauges() {
	reg := obs.Default()
	reg.GaugeGroup(func() []float64 {
		st := s.backend.Stats()
		return []float64{float64(s.backend.Len()), float64(st.Index.Delta), float64(st.Index.Tombstones),
			float64(st.Durability.WALRecords), float64(st.Durability.WALBytes)}
	},
		obs.GaugeSpec{Name: "pis_graphs_live", Help: "Live (non-tombstoned) graphs in the database."},
		obs.GaugeSpec{Name: "pis_delta_graphs", Help: "Inserted graphs not yet folded into the index."},
		obs.GaugeSpec{Name: "pis_tombstoned_graphs", Help: "Deleted graphs awaiting compaction."},
		obs.GaugeSpec{Name: "pis_wal_records", Help: "Acknowledged mutations in the active WALs, not yet snapshotted (0 for in-memory databases)."},
		obs.GaugeSpec{Name: "pis_wal_live_bytes", Help: "Bytes in the active WALs (0 for in-memory databases)."})
	obs.RegisterProcessMetrics(reg)
}

// MetricsHandler returns a standalone handler for the process-wide metric
// registry in Prometheus text exposition format. It serves the same data
// as GET /metrics on the query port; pisserved mounts it on the
// -debug-addr admin listener so scrapes bypass query admission control.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default().WritePrometheus(w)
	})
}

// DebugQueriesResponse is the body of GET /debug/queries.
type DebugQueriesResponse struct {
	Queries []obs.QueryRecord `json:"queries"`
}

// handleDebugQueries serves the sampled query ring, newest first.
// ?limit=N bounds the result (default: the whole ring).
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	recs := s.qlog.Snapshot(limit)
	if recs == nil {
		recs = []obs.QueryRecord{}
	}
	writeJSON(w, http.StatusOK, DebugQueriesResponse{Queries: recs})
}

// observeQuery samples one finished query into the debug ring and the
// slow-query log. trace may be nil (tracing off); it is referenced, not
// copied, so the record shares the span tree returned to the client.
func (s *Server) observeQuery(endpoint string, q *pis.Graph, sigma float64, answers int, elapsedMS float64, trace *pis.TraceSpan) {
	slow := s.cfg.SlowQueryThreshold > 0 && elapsedMS >= obs.MS(s.cfg.SlowQueryThreshold)
	if trace != nil {
		mTracedQueries.Inc()
	}
	rec := obs.QueryRecord{
		Time:      time.Now(),
		Endpoint:  endpoint,
		Sigma:     sigma,
		Answers:   answers,
		ElapsedMS: elapsedMS,
		Slow:      slow,
		Trace:     trace,
	}
	if q != nil {
		rec.QueryN = q.N()
		rec.QueryM = q.M()
	}
	s.qlog.Add(rec)
	if slow {
		mSlowQueries.Inc()
		s.logger.Warn("slow query",
			slog.String("endpoint", endpoint),
			slog.Float64("elapsed_ms", elapsedMS),
			slog.Float64("threshold_ms", obs.MS(s.cfg.SlowQueryThreshold)),
			slog.Float64("sigma", sigma),
			slog.Int("query_vertices", rec.QueryN),
			slog.Int("query_edges", rec.QueryM),
			slog.Int("answers", answers),
		)
	}
}

// stageQuantile builds the /stats quantile summary for one stage
// histogram.
func stageQuantile(h *obs.Histogram) StageQuantilesJSON {
	snap := h.Snapshot()
	return StageQuantilesJSON{
		Count: snap.Count(),
		P50MS: snap.Quantile(0.50) * 1000,
		P95MS: snap.Quantile(0.95) * 1000,
		P99MS: snap.Quantile(0.99) * 1000,
	}
}

// StageQuantilesJSON summarizes one latency histogram in /stats.
type StageQuantilesJSON struct {
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// ObservabilityJSON is the structured observability block of /stats: a
// readable summary of the registry served raw at /metrics.
type ObservabilityJSON struct {
	// StageLatency estimates p50/p95/p99 per pipeline stage (plan,
	// filter, verify) over every query this process has run.
	StageLatency map[string]StageQuantilesJSON `json:"stage_latency"`
	// SlowQueries counts queries over the threshold; 0 threshold = off.
	SlowQueries          int64   `json:"slow_queries"`
	SlowQueryThresholdMS float64 `json:"slow_query_threshold_ms,omitempty"`
	TracedQueries        int64   `json:"traced_queries"`
	// QueryLogEntries is the current /debug/queries ring occupancy.
	QueryLogEntries int `json:"query_log_entries"`
}

// RuntimeStatsJSON is the process-level telemetry block of /stats.
type RuntimeStatsJSON = obs.ProcessStats

func (s *Server) observabilityStats() ObservabilityJSON {
	reg := obs.Default()
	stages := reg.HistogramVec("pis_query_stage_seconds", "", "stage", nil)
	return ObservabilityJSON{
		StageLatency: map[string]StageQuantilesJSON{
			"plan":   stageQuantile(stages.With("plan")),
			"filter": stageQuantile(stages.With("filter")),
			"verify": stageQuantile(stages.With("verify")),
		},
		SlowQueries:          mSlowQueries.Value(),
		SlowQueryThresholdMS: obs.MS(s.cfg.SlowQueryThreshold),
		TracedQueries:        mTracedQueries.Value(),
		QueryLogEntries:      s.qlog.Len(),
	}
}
