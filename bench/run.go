package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// tracedShare of the measured list carries ?trace=1 in a traced run.
const tracedShare = 0.2

// report is everything one run of one workload found.
type report struct {
	spec      spec
	seed      int64
	seconds   int
	list      *opList
	values    map[string]float64 // every metric measured, by name
	counts    map[string]int     // samples behind each percentile
	refused   []string           // percentiles withheld for lack of samples
	measuredS float64
	attempted int
	failed    int
	failures  []string // the first few failure reasons
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setPercentile records a percentile, or withholds it when too few
// samples lie beyond it.
func (r *report) setPercentile(name string, xs []float64, p float64) {
	r.counts[name] = len(xs)
	v, ok := percentile(xs, p)
	if !ok && len(xs) > 0 {
		r.refused = append(r.refused, name)
		v = 0
	}
	r.values[name] = v
}

// runWorkload sets the workload up, replays its op list and measures it.
// With traced set it also asks for span trees on the first fifth of the
// measured list, times the layers' public functions directly, and writes
// the span file into spanDir. Stores and scratch files go under workDir.
func runWorkload(sp spec, seed int64, seconds int, traced bool, workDir, spanDir string) (*report, error) {
	runtime.GOMAXPROCS(clients)
	r := &report{spec: sp, seed: seed, seconds: seconds, values: map[string]float64{}, counts: map[string]int{}}

	// Set-up: everything from the seed to a warm server.
	t := time.Now()
	l, err := generate(sp, seed, seconds)
	if err != nil {
		return nil, err
	}
	r.list = l
	r.values["setup.generate_s"] = since(t)
	in, err := sp.start(filepath.Join(workDir, "store"), l.graphs)
	if err != nil {
		return nil, fmt.Errorf("starting %s: %w", sp.name, err)
	}
	defer in.close()
	if err := in.serve(); err != nil {
		return nil, err
	}
	tw := time.Now()
	wo := newWriteOrder()
	for i, s := range replay(in.url, l.ops, 0, l.warmup, 0, wo) {
		if s.failed != "" {
			return nil, fmt.Errorf("warm-up op %d (%s) failed: %s", i, kindNames[l.ops[i].kind], s.failed)
		}
	}
	r.values["setup_s"] = since(t)
	r.values["setup.build_s"] = in.buildS
	r.values["setup.open_s"] = in.openS
	r.values["setup.warmup_s"] = since(tw)

	// Measured phase.
	tracedTo := 0
	if traced {
		tracedTo = l.warmup + int(tracedShare*float64(len(l.ops)-l.warmup))
	}
	runtime.GC()
	before, err := takeSnapshot(in.url)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	samples := replay(in.url, l.ops, l.warmup, len(l.ops), tracedTo, wo)
	r.measuredS = since(t)
	after, err := takeSnapshot(in.url)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	r.values["peak_rss_mb"] = rss

	r.attempted = len(samples)
	for i, s := range samples {
		if s.failed != "" {
			r.fail("op %d (%s): %s", l.warmup+i, kindNames[l.ops[l.warmup+i].kind], s.failed)
		}
	}
	r.loadMetrics(samples, before, after)
	// The list places the auto-compactions by simulating the trigger; a
	// run in which the server compacted elsewhere measured other work. The
	// delta left at the end pins the position of the last compaction.
	predicted := 0
	for _, at := range l.compactAt {
		if at >= l.warmup {
			predicted++
		}
	}
	if got, delta := r.values["segment.compactions"], after.metrics["pis_delta_graphs"]; got != float64(predicted) || delta != float64(l.deltaEnd) {
		r.fail("the server compacted %.0f times in the measured phase and ends with a delta of %.0f graphs; the list predicts %d times (at ops %v) and %d",
			got, delta, predicted, l.compactAt, l.deltaEnd)
	}

	// Everything below runs after the numbers are taken.
	if err := r.checkOracle(in, samples); err != nil {
		return nil, err
	}
	if traced {
		r.traceMetrics(samples, tracedTo-l.warmup)
		if err := writeSpans(spanDir, sp.name, l, samples[:tracedTo-l.warmup]); err != nil {
			return nil, err
		}
		if err := r.microMetrics(in.be, workDir); err != nil {
			return nil, err
		}
	}
	if in.reopen != nil {
		if err := in.close(); err != nil {
			return nil, err
		}
		t := time.Now()
		be, err := in.reopen()
		if err != nil {
			return nil, fmt.Errorf("reopening the store: %w", err)
		}
		r.values["store.reopen_s"] = since(t)
		if got := be.Len(); got != len(l.live) {
			r.fail("reopened store holds %d graphs, the list predicts %d", got, len(l.live))
		}
		if err := be.Close(); err != nil {
			return nil, err
		}
	}
	return r, in.close()
}

func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// snapshot is the process and server state read on either side of the
// measured phase.
type snapshot struct {
	metrics scrape
	cpuS    float64
	mem     runtime.MemStats
}

func takeSnapshot(url string) (*snapshot, error) {
	s := &snapshot{}
	var err error
	if s.metrics, err = scrapeMetrics(url); err != nil {
		return nil, err
	}
	if s.cpuS, err = cpuSeconds(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&s.mem)
	return s, nil
}

// loadMetrics derives every metric that comes from the measured phase
// itself: client timings, response bodies and /metrics deltas.
func (r *report) loadMetrics(samples []sample, before, after *snapshot) {
	l := r.list
	ops := float64(len(samples))
	delta := func(series string) float64 { return after.metrics[series] - before.metrics[series] }
	family := func(name string) float64 { return after.metrics.family(name) - before.metrics.family(name) }

	var searchRTT, knnRTT, insertRTT, deleteRTT, overhead []float64
	var self, plan, filter, verify []float64
	var structC, rangeC, distC, prescreen, vcHits, verified, expanded, answers float64
	reads := 0.0
	for i := range samples {
		s := &samples[i]
		o := &l.ops[l.warmup+i]
		if o.kind <= opBatch {
			reads++
		}
		if s.failed != "" {
			continue
		}
		switch o.kind {
		case opSearch:
			searchRTT = append(searchRTT, s.rttMS())
			overhead = append(overhead, s.rttMS()-s.elapsedMS)
			if s.cached {
				// A hit returns the stats of the execution that filled the
				// cache; only executed searches describe the layers.
				continue
			}
			st := s.stats
			self = append(self, s.elapsedMS-st.FilterMS-st.VerifyMS)
			plan = append(plan, st.PlanMS)
			filter = append(filter, st.FilterMS)
			verify = append(verify, st.VerifyMS)
			structC += float64(st.StructCandidates)
			rangeC += float64(st.RangeCandidates)
			distC += float64(st.DistCandidates)
			prescreen += float64(st.PrescreenRejects)
			vcHits += float64(st.VerifyCacheHits)
			verified += float64(st.Verified)
			expanded += float64(st.ExpandedFragments)
			answers += float64(s.nAnswers)
		case opKNN:
			knnRTT = append(knnRTT, s.rttMS())
		case opInsert:
			insertRTT = append(insertRTT, s.rttMS())
		case opDelete:
			deleteRTT = append(deleteRTT, s.rttMS())
		}
	}
	executed := float64(len(self))
	sumFilter, sumVerify := mean(filter)*executed, mean(verify)*executed

	v := r.values
	v["throughput_rps"] = ops / r.measuredS
	v["cpu_ms_per_req"] = (after.cpuS - before.cpuS) * 1000 / ops
	r.setPercentile("search_p50_ms", searchRTT, 0.50)
	r.setPercentile("search_p95_ms", searchRTT, 0.95)
	r.setPercentile("search_p99_ms", searchRTT, 0.99)
	r.setPercentile("knn_p50_ms", knnRTT, 0.50)
	r.setPercentile("segment.insert_ms_p50", insertRTT, 0.50)
	r.setPercentile("segment.delete_ms_p50", deleteRTT, 0.50)
	r.setPercentile("http.overhead_ms_p50", overhead, 0.50)
	if len(searchRTT) > 0 {
		v["search_max_ms"], _ = percentile(searchRTT, 1)
	}
	v["mutation_mean_ms"] = mean(append(insertRTT, deleteRTT...))
	v["loadgen.segment_rps_spread"] = segmentSpread(samples)

	v["server.self_ms_mean"] = mean(self)
	hits, misses := delta("pis_result_cache_hits_total"), delta("pis_result_cache_misses_total")
	v["server.result_cache_hit_rate"] = ratio(hits, hits+misses)

	v["core.plan_ms_mean"] = mean(plan)
	v["core.filter_ms_mean"] = mean(filter)
	v["core.verify_ms_mean"] = mean(verify)
	v["core.filter_share"] = ratio(sumFilter, sumFilter+sumVerify)
	v["core.verify_share"] = ratio(sumVerify, sumFilter+sumVerify)
	v["core.struct_candidates_mean"] = ratio(structC, executed)
	v["core.range_candidates_mean"] = ratio(rangeC, executed)
	v["core.dist_candidates_mean"] = ratio(distC, executed)
	v["core.prescreen_rejects_mean"] = ratio(prescreen, executed)
	v["core.verify_cache_hits_mean"] = ratio(vcHits, executed)
	v["core.verified_mean"] = ratio(verified, executed)
	v["core.expanded_fragments_mean"] = ratio(expanded, executed)
	v["core.answers_mean"] = ratio(answers, executed)
	v["core.verified_per_answer"] = ratio(verified, answers)
	v["iso.verify_us_per_candidate"] = ratio(sumVerify*1000, verified)
	v["index.range_queries_per_search"] = ratio(delta("pis_index_range_queries_total"), reads)

	v["segment.compactions"] = delta("pis_compactions_total")
	v["segment.compact_s_total"] = delta("pis_compaction_seconds_sum")
	v["segment.delta_graphs_max"] = float64(l.deltaMax)
	v["store.wal_appends"] = delta("pis_wal_appends_total")
	v["store.wal_fsync_ms_mean"] = ratio(delta("pis_wal_fsync_seconds_sum")*1000, delta("pis_wal_fsync_seconds_count"))
	v["store.wal_bytes_per_insert"] = ratio(delta("pis_wal_bytes_total"), float64(len(insertRTT)))
	v["store.snapshot_s_total"] = delta("pis_snapshot_seconds_sum")

	rpcs := delta("pis_cluster_search_rpc_seconds_count")
	fanned := float64(len(searchRTT) + len(knnRTT))
	hedges := delta("pis_cluster_hedges_total")
	v["cluster.search_rpc_ms_mean"] = ratio(delta("pis_cluster_search_rpc_seconds_sum")*1000, rpcs)
	v["cluster.rpcs_per_search"] = ratio(rpcs, fanned)
	v["cluster.hedges_per_search"] = ratio(hedges, fanned)
	v["cluster.hedge_win_rate"] = ratio(delta("pis_cluster_hedge_wins_total"), hedges)
	v["cluster.failovers"] = delta("pis_cluster_failovers_total")
	v["cluster.rpc_errors"] = family("pis_cluster_rpc_errors_total")
	v["cluster.replica_lag_max"] = after.metrics.familyMax("pis_cluster_replica_lag_records")

	v["runtime.alloc_kb_per_req"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / ops
	v["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	v["runtime.gc_pause_ms_total"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	v["runtime.heap_mb_end"] = float64(after.mem.HeapAlloc) / (1 << 20)
}

// segmentSpread is (max-min)/median of the throughput over ten segments
// of equal op count: how steady the load generator ran.
func segmentSpread(samples []sample) float64 {
	const segments = 10
	if len(samples) < segments {
		return 0
	}
	var rps []float64
	var prevEnd time.Duration
	for s := 0; s < segments; s++ {
		from, to := s*len(samples)/segments, (s+1)*len(samples)/segments
		end := prevEnd
		for _, x := range samples[from:to] {
			end = max(end, x.end)
		}
		rps = append(rps, ratio(float64(to-from), (end-prevEnd).Seconds()))
		prevEnd = end
	}
	sort.Float64s(rps)
	return ratio(rps[segments-1]-rps[0], median(rps))
}
