// Machine-readable benchmark report. pisbench -json writes one of these
// so the out-of-core profile (build time and memory, per-stage filtering
// cost, candidates per stage, throughput) can be checked without parsing
// text output.

package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"pis/internal/chem"
	"pis/internal/core"
	"pis/internal/index"
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

	// Allocation profile of the serial query loop (heap allocations the
	// flat candidate pipeline is meant to keep near zero).
	AvgAllocsPerQuery  float64 `json:"avg_allocs_per_query"`
	AvgAllocKBPerQuery float64 `json:"avg_alloc_kb_per_query"`

	// End-to-end throughput (filter + verify, serial).
	TotalMS       float64 `json:"total_ms"`
	QueriesPerSec float64 `json:"queries_per_sec"`

	// Restart economics of the durable store: serializing the index as
	// its PISIDX3 image (IndexSaveMS, IndexBytes), decoding it back onto
	// the heap (IndexLoadMS), and how that compares to mining + building
	// from scratch (LoadVsBuildSpeedup = BuildMS / IndexLoadMS).
	IndexSaveMS        float64 `json:"index_save_ms"`
	IndexLoadMS        float64 `json:"index_load_ms"`
	IndexBytes         int     `json:"index_bytes"`
	LoadVsBuildSpeedup float64 `json:"load_vs_build_speedup"`

	// Out-of-core profile. PeakRSSMB is the process high-water mark at
	// the end of the measurement (0 where /proc is unavailable); the
	// open timings compare demand-paged mmap against decoding the same
	// image onto the heap (IndexOpenMSHeap is IndexLoadMS under its
	// out-of-core name). The remaining fields are filled only by
	// MeasureLarge: IndexPairMS is the wall time of Pair on the freshly
	// built, mapped index, which lays out the class bitmaps from the entry
	// runs (so open plus Pair is what readies an image), MiningMS is the
	// wall time of feature mining and
	// MiningPeakRSSMB the high-water mark right after it, BuildPeakRSSMB
	// the high-water mark right after the streaming build — before the
	// query phase materializes the graphs — RawPostingBytes is the
	// uncompressed volume of the stored entries (StreamResult) that a heap
	// build would have held resident,
	// the denominator of the build's RSS budget, and StreamSpillRuns /
	// StreamSpillBytes count the chunks the build folded and the bytes
	// of the run files it wrote for them.
	PeakRSSMB         float64 `json:"peak_rss_mb"`
	IndexOpenMSMapped float64 `json:"index_open_ms_mapped"`
	IndexOpenMSHeap   float64 `json:"index_open_ms_heap"`
	IndexPairMS       float64 `json:"index_pair_ms,omitempty"`
	MiningMS          float64 `json:"mining_ms,omitempty"`
	MiningPeakRSSMB   float64 `json:"mining_peak_rss_mb,omitempty"`
	BuildPeakRSSMB    float64 `json:"build_peak_rss_mb,omitempty"`
	RawPostingBytes   int64   `json:"raw_posting_bytes,omitempty"`
	StreamSpillRuns   int     `json:"stream_spill_runs,omitempty"`
	StreamSpillBytes  int64   `json:"stream_spill_bytes,omitempty"`
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

// Measure runs the full pipeline (filter + verification) over a sampled
// query workload and aggregates per-stage counters and timings.
// queryEdges is clamped to the largest database graph — SampleQueries
// retries until it has enough queries, so an unsatisfiable size would
// spin forever.
func Measure(env *Env, queryEdges int, sigma float64) BenchReport {
	cfg := env.Config
	maxM := 0
	for _, g := range env.DB {
		if g.M() > maxM {
			maxM = g.M()
		}
	}
	if queryEdges > maxM {
		queryEdges = maxM
	}
	qs := chem.SampleQueries(env.DB, cfg.Queries, queryEdges, cfg.Seed+7)
	// VerifyWorkers: 1 keeps the loop fully serial so the per-query
	// allocation and stage-time numbers measure the pipeline itself, not
	// worker-pool spawning or parallel wall-time effects.
	s := core.NewSearcher(env.DB, env.Index, core.Options{VerifyWorkers: 1})
	ist := env.Index.Stats()
	rep := BenchReport{
		DBSize:           cfg.DBSize,
		Seed:             cfg.Seed,
		Queries:          len(qs),
		QueryEdges:       queryEdges,
		Sigma:            sigma,
		MaxFragmentEdges: cfg.MaxFragmentEdges,
		Features:         len(env.Features),
		BuildMS:          ms(env.BuildDur),
		Fragments:        ist.Fragments,
		Sequences:        ist.Sequences,
	}
	plan := make([]time.Duration, 0, len(qs))
	filter := make([]time.Duration, 0, len(qs))
	verify := make([]time.Duration, 0, len(qs))
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	var agg core.Stats
	answers := 0
	for _, q := range qs {
		r := s.Search(q, sigma)
		agg.Add(r.Stats)
		answers += len(r.Answers)
		plan = append(plan, r.Stats.PlanTime)
		filter = append(filter, r.Stats.FilterTime)
		verify = append(verify, r.Stats.VerifyTime)
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

	measureRestart(env.Index, &rep)
	rep.PeakRSSMB = peakRSSMB()
	return rep
}

// measureRestart times what a restart pays through the durable store
// instead of re-mining + rebuilding: the index is saved once (a PISIDX3
// image), and that one image is opened both ways — mmap (directory decode
// only, slabs demand-paged) and full heap decode. The heap decode is both
// index_load_ms and index_open_ms_heap: with one format they are the
// same measurement. Failures leave the fields 0.
func measureRestart(x *index.Index, rep *BenchReport) {
	metric := x.Options().Metric
	var image bytes.Buffer
	start := time.Now()
	if err := x.Save(&image); err != nil {
		return
	}
	rep.IndexSaveMS = ms(time.Since(start))
	rep.IndexBytes = image.Len()

	start = time.Now()
	if _, err := index.LoadBytes(image.Bytes(), metric); err == nil {
		rep.IndexLoadMS = ms(time.Since(start))
		rep.IndexOpenMSHeap = rep.IndexLoadMS
		if rep.IndexLoadMS > 0 {
			rep.LoadVsBuildSpeedup = rep.BuildMS / rep.IndexLoadMS
		}
	}

	f, err := os.CreateTemp("", "pis-bench-*.pisidx3")
	if err != nil {
		return
	}
	defer os.Remove(f.Name())
	_, err = f.Write(image.Bytes())
	if cerr := f.Close(); err != nil || cerr != nil {
		return
	}
	start = time.Now()
	if mx, err := index.OpenMapped(f.Name(), metric); err == nil {
		rep.IndexOpenMSMapped = ms(time.Since(start))
		mx.Close()
	}
}

// WriteJSON writes the report, indented, to w.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
