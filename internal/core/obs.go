// Observability hooks for the search pipeline. The pipeline always
// collects Stats; this file forwards those counters into the shared
// obs registry (one atomic op per counter per query) and knows how to
// promote a Stats into a span tree after the fact, so tracing costs
// nothing when nobody asks for it.

package core

import (
	"time"

	"pis/internal/obs"
)

var (
	queriesTotal = obs.Default().CounterVec(
		"pis_queries_total",
		"Completed searches by pipeline (pis, naive).",
		"method")
	stageSeconds = obs.Default().HistogramVec(
		"pis_query_stage_seconds",
		"Per-stage search latency. plan is the scoring/ordering slice of filter; filter and verify are disjoint and sum to the instrumented query time.",
		"stage", obs.LatencyBuckets)
	funnelTotal = obs.Default().CounterVec(
		"pis_query_candidates_total",
		"Candidate-funnel volume by stage: graphs surviving structural intersection, the sigma range intersection, the partition lower bound, and reaching verification.",
		"stage")
	fragmentsTotal = obs.Default().CounterVec(
		"pis_query_fragments_total",
		"Fragment-funnel volume by stage: query fragments materialized, kept after the epsilon filter and cap, and whose sigma range query actually ran.",
		"stage")
	panicsTotal = obs.Default().CounterVec(
		"pis_panics_total",
		"Panics recovered instead of crashing the process, by site (verify worker, http handler).",
		"site")
	mQueriesCanceled = obs.Default().Counter(
		"pis_queries_canceled_total",
		"Searches cut short by context cancellation or deadline (partial results).")
	prescreenRejects = obs.Default().CounterVec(
		"pis_prescreen_rejects_total",
		"Verification candidates refuted without branch-and-bound, by tier: fingerprint (structure, degree, or label-cost bound at this sigma) or invariants (cycle and ball aggregates the query's skeleton cannot fit).",
		"tier")
	mVerifyNodes = obs.Default().Counter(
		"pis_verify_nodes_total",
		"Branch-and-bound nodes expanded by exact verification.")
	mPlannerSkipped = obs.Default().Counter(
		"pis_planner_range_queries_skipped_total",
		"Usable query fragments whose sigma range query the planner did not run, a class never materialized counting once: estimated gain below budget, candidate set already under the crossover, or a dry streak ended expansion.")
	mPlannerExplore = obs.Default().Counter(
		"pis_planner_explore_searches_total",
		"Searches planned on the static class statistics alone, ignoring learned survival rates, so a class that has started to prune is noticed (one in 32).")
)

// Pre-resolved children so the per-query path never takes a vec lock.
var (
	mQueriesPIS    = queriesTotal.With("pis")
	mQueriesNaive  = queriesTotal.With("naive")
	mStagePlan     = stageSeconds.With("plan")
	mStageFilter   = stageSeconds.With("filter")
	mStageVerify   = stageSeconds.With("verify")
	mFunnelStruct  = funnelTotal.With("struct")
	mFunnelRange   = funnelTotal.With("range")
	mFunnelDist    = funnelTotal.With("dist")
	mFunnelVerify  = funnelTotal.With("verified")
	mFragsQuery    = fragmentsTotal.With("query")
	mFragsUsed     = fragmentsTotal.With("used")
	mFragsExpanded = fragmentsTotal.With("expanded")
	mVerifyPanics  = panicsTotal.With("verify")
	mRejectsFP     = prescreenRejects.With("fingerprint")
	mRejectsInv    = prescreenRejects.With("invariants")
)

// record publishes one finished query's Stats into the registry.
func (st *Stats) record(queries *obs.Counter) {
	queries.Inc()
	mStagePlan.Observe(st.PlanTime.Seconds())
	mStageFilter.Observe(st.FilterTime.Seconds())
	mStageVerify.Observe(st.VerifyTime.Seconds())
	mFunnelStruct.Add(int64(st.StructCandidates))
	mFunnelRange.Add(int64(st.RangeCandidates))
	mFunnelDist.Add(int64(st.DistCandidates))
	mFunnelVerify.Add(int64(st.Verified))
	mFragsQuery.Add(int64(st.QueryFragments))
	mFragsUsed.Add(int64(st.UsedFragments))
	mFragsExpanded.Add(int64(st.ExpandedFragments))
	mRejectsFP.Add(int64(st.PrescreenRejects - st.InvariantRejects))
	mRejectsInv.Add(int64(st.InvariantRejects))
	mVerifyNodes.Add(int64(st.VerifyNodes))
}

// Publish records st as one finished PIS search. The pipeline calls it
// itself; a segment calls it for a search its result memo answered, so
// pis_queries_total keeps counting every search a backend executed.
func (st *Stats) Publish() { st.record(mQueriesPIS) }

// Trace promotes the Stats into a span tree for one search that took
// wall time total. Children are the disjoint stages — plan, then the
// rest of filtering, then verification — so their durations sum to
// FilterTime + VerifyTime, which is ≤ total (the remainder is snapshot
// capture, result assembly, and merge overhead outside the instrumented
// stages). The funnel counters ride along as span attributes.
func (st *Stats) Trace(total time.Duration) *obs.Span {
	root := &obs.Span{Name: "search", DurationMS: obs.MS(total)}
	root.SetAttr("memo_hit", st.MemoHits > 0)
	root.SetAttr("refreshed", st.Refreshed)
	plan := root.Child("plan", obs.MS(st.PlanTime))
	plan.SetAttr("query_fragments", st.QueryFragments)
	plan.SetAttr("used_fragments", st.UsedFragments)
	filter := root.Child("filter", obs.MS(st.FilterTime-st.PlanTime))
	filter.SetAttr("expanded_fragments", st.ExpandedFragments)
	filter.SetAttr("partition_size", st.PartitionSize)
	filter.SetAttr("struct_candidates", st.StructCandidates)
	filter.SetAttr("range_candidates", st.RangeCandidates)
	filter.SetAttr("dist_candidates", st.DistCandidates)
	verify := root.Child("verify", obs.MS(st.VerifyTime))
	verify.SetAttr("prescreen_rejects", st.PrescreenRejects)
	verify.SetAttr("invariant_rejects", st.InvariantRejects)
	verify.SetAttr("verify_cache_hits", st.VerifyCacheHits)
	verify.SetAttr("verified", st.Verified)
	verify.SetAttr("nodes", st.VerifyNodes)
	return root
}

// Trace is Stats.Trace plus what only a single search has: the plan span
// names, per range query the planner ran and in the order it ran them,
// the fragment's class, the eliminations the planner expected of it and
// the eliminations it produced — why each range query ran, and whether it
// paid.
func (r *Result) Trace(total time.Duration) *obs.Span {
	root := r.Stats.Trace(total)
	if n := len(r.Expansions); n > 0 {
		classes, est, got := make([]int, n), make([]float64, n), make([]int, n)
		for i, e := range r.Expansions {
			classes[i], est[i], got[i] = e.Class, e.EstimatedGain, e.ObservedGain
		}
		plan := root.Children[0]
		plan.SetAttr("expanded_class", classes)
		plan.SetAttr("estimated_gain", est)
		plan.SetAttr("observed_gain", got)
	}
	return root
}
