// Machine-readable benchmark report. pisbench -json writes one of these
// so the large-scale profile (build time and memory, open time, per-stage
// filtering cost, candidates per stage, throughput) can be checked without
// parsing text output.

package harness

import (
	"encoding/json"
	"io"
	"runtime"
	"slices"
	"time"

	"pis"
	"pis/internal/core"
	"pis/internal/graph"
)

// BenchReport is the serialized outcome of one timed workload.
type BenchReport struct {
	// Dataset parameters.
	DBSize           int     `json:"db_size"`
	Seed             int64   `json:"seed"`
	Queries          int     `json:"queries"`
	QueryEdges       int     `json:"query_edges"`
	Sigma            float64 `json:"sigma"`
	MaxFragmentEdges int     `json:"max_fragment_edges"`

	// Index construction.
	Features  int     `json:"features"`
	BuildMS   float64 `json:"build_ms"`
	Fragments int     `json:"index_fragments"`
	Sequences int     `json:"index_sequences"`

	// Per-stage averages over the query set. The fragment columns trace
	// the planner: materialized, in a class not present in every graph,
	// and actually range-expanded.
	// The candidate columns trace the filter funnel: structural postings
	// intersection, σ range-list intersection, partition lower-bound
	// pruning, and what finally reached verification.
	AvgQueryFragments    float64 `json:"avg_query_fragments"`
	AvgUsedFragments     float64 `json:"avg_used_fragments"`
	AvgExpandedFragments float64 `json:"avg_expanded_fragments"`
	AvgStructCandidates  float64 `json:"avg_struct_candidates"`
	AvgRangeCandidates   float64 `json:"avg_range_candidates"`
	AvgDistCandidates    float64 `json:"avg_dist_candidates"`
	AvgVerified          float64 `json:"avg_verified"`
	AvgAnswers           float64 `json:"avg_answers"`
	// avg_prescreen_rejects counts candidates the prescreen (fingerprint
	// or graph invariants) refuted per query on the cold pass — work the
	// branch-and-bound verifier no longer sees.
	AvgPrescreenRejects float64 `json:"avg_prescreen_rejects"`
	// avg_plan_ms is the planning slice of avg_filter_ms, not an extra
	// stage: avg_filter_ms + avg_verify_ms is the whole query.
	AvgPlanMS   float64 `json:"avg_plan_ms"`
	AvgFilterMS float64 `json:"avg_filter_ms"`
	AvgVerifyMS float64 `json:"avg_verify_ms"`

	// Filter-vs-verify split of the instrumented query time, so a
	// regression in either stage is visible on its own even when the
	// end-to-end number moves the other way.
	FilterTimeShare float64 `json:"filter_time_share"`
	VerifyTimeShare float64 `json:"verify_time_share"`

	// Per-stage latency quantiles over the measured loop: the nearest-rank
	// percentiles of the queries' own stage times, exact rather than a
	// histogram's bucket bounds. Averages hide tail regressions; these
	// don't.
	PlanQuantiles   StageQuantiles `json:"plan_quantiles_ms"`
	FilterQuantiles StageQuantiles `json:"filter_quantiles_ms"`
	VerifyQuantiles StageQuantiles `json:"verify_quantiles_ms"`

	// Allocation profile of the query loop (heap allocations the flat
	// candidate pipeline is meant to keep near zero).
	AvgAllocsPerQuery  float64 `json:"avg_allocs_per_query"`
	AvgAllocKBPerQuery float64 `json:"avg_alloc_kb_per_query"`

	// End-to-end throughput (filter + verify, one query at a time, each
	// verifying on GOMAXPROCS workers).
	TotalMS       float64 `json:"total_ms"`
	QueriesPerSec float64 `json:"queries_per_sec"`

	// Oracle: LiveGraphs is the measured database's Len, and of the first
	// OracleQueries measured queries, OracleMismatches answered other ids
	// than SearchNaive, which verifies every graph.
	LiveGraphs       int `json:"live_graphs"`
	OracleQueries    int `json:"oracle_queries"`
	OracleMismatches int `json:"oracle_mismatches"`

	// Store profile, filled by MeasureLarge. BuildPeakRSSMB is the process
	// high-water mark right after pis.Create, OpenMS the wall time of the
	// pis.Open that reopens the store (snapshot decode, index mapping and
	// pairing), IndexBytes the size of the index side files it maps, and
	// PeakRSSMB the high-water mark once the measured loop ends (0 where
	// /proc is unavailable).
	BuildPeakRSSMB float64 `json:"build_peak_rss_mb,omitempty"`
	OpenMS         float64 `json:"open_ms,omitempty"`
	IndexBytes     int     `json:"index_bytes,omitempty"`
	PeakRSSMB      float64 `json:"peak_rss_mb"`
}

// StageQuantiles summarizes one stage's latency distribution in
// milliseconds.
type StageQuantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// stageQuantiles returns the nearest-rank p50, p95 and p99 of one stage's
// per-query times in milliseconds; it sorts times.
func stageQuantiles(times []time.Duration) StageQuantiles {
	if len(times) == 0 {
		return StageQuantiles{}
	}
	slices.Sort(times)
	at := func(pct int) float64 { return ms(times[(pct*len(times)+99)/100-1]) }
	return StageQuantiles{P50: at(50), P95: at(95), P99: at(99)}
}

// oracleQueries is how many of the measured queries Measure checks
// against SearchNaive.
const oracleQueries = 3

// Measure runs the queries through db.Search, one at a time, and
// aggregates per-stage counters and timings. Then, outside the timed and
// allocation-counted loop and after the peak RSS is read, it checks the
// first oracleQueries answer sets against db.SearchNaive.
func Measure(db *pis.Database, qs []*graph.Graph, sigma float64) BenchReport {
	st := db.Stats().Index
	rep := BenchReport{
		Queries:    len(qs),
		Sigma:      sigma,
		Features:   st.Features,
		Fragments:  st.Fragments,
		Sequences:  st.Sequences,
		LiveGraphs: db.Len(),
	}
	plan := make([]time.Duration, 0, len(qs))
	filter := make([]time.Duration, 0, len(qs))
	verify := make([]time.Duration, 0, len(qs))
	var first [][]int32
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	var agg core.Stats
	answers := 0
	for _, q := range qs {
		r := db.Search(q, sigma)
		agg.Add(r.Stats)
		answers += len(r.Answers)
		plan = append(plan, r.Stats.PlanTime)
		filter = append(filter, r.Stats.FilterTime)
		verify = append(verify, r.Stats.VerifyTime)
		if len(first) < oracleQueries {
			first = append(first, r.Answers)
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&msAfter)
	n := float64(len(qs))
	rep.AvgQueryFragments = float64(agg.QueryFragments) / n
	rep.AvgUsedFragments = float64(agg.UsedFragments) / n
	rep.AvgExpandedFragments = float64(agg.ExpandedFragments) / n
	rep.AvgStructCandidates = float64(agg.StructCandidates) / n
	rep.AvgRangeCandidates = float64(agg.RangeCandidates) / n
	rep.AvgDistCandidates = float64(agg.DistCandidates) / n
	rep.AvgVerified = float64(agg.Verified) / n
	rep.AvgAnswers = float64(answers) / n
	rep.AvgPrescreenRejects = float64(agg.PrescreenRejects) / n
	rep.AvgPlanMS = ms(agg.PlanTime) / n
	rep.AvgFilterMS = ms(agg.FilterTime) / n
	rep.AvgVerifyMS = ms(agg.VerifyTime) / n
	if staged := agg.FilterTime + agg.VerifyTime; staged > 0 {
		rep.FilterTimeShare = float64(agg.FilterTime) / float64(staged)
		rep.VerifyTimeShare = float64(agg.VerifyTime) / float64(staged)
	}
	rep.PlanQuantiles = stageQuantiles(plan)
	rep.FilterQuantiles = stageQuantiles(filter)
	rep.VerifyQuantiles = stageQuantiles(verify)
	rep.AvgAllocsPerQuery = float64(msAfter.Mallocs-msBefore.Mallocs) / n
	rep.AvgAllocKBPerQuery = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / 1024 / n
	rep.TotalMS = ms(wall)
	rep.QueriesPerSec = n / wall.Seconds()
	rep.PeakRSSMB = peakRSSMB()

	for i, answers := range first {
		rep.OracleQueries++
		if !slices.Equal(answers, db.SearchNaive(qs[i], sigma).Answers) {
			rep.OracleMismatches++
		}
	}
	return rep
}

// WriteJSON writes the report, indented, to w.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
