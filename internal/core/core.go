// Package core implements the PIS search pipeline of the paper
// (Algorithm 2) together with the two baselines it is evaluated against:
//
//   - Naive — verify the superimposed distance of every database graph;
//   - topoPrune — intersect the structural postings of the query's
//     indexed fragments (gIndex-style structure-only filtering), then
//     verify the survivors;
//   - PIS — additionally run a σ range query per fragment, intersect the
//     in-range graph sets, compute dynamic fragment selectivities, pick a
//     maximum-selectivity vertex-disjoint partition (MWIS), and prune
//     every graph whose partition distance sum exceeds σ (the Eq. 2 lower
//     bound), before verifying.
//
// All three return identical answer sets; they differ only in how many
// candidates reach the expensive verification stage, which is exactly
// what the paper's experiments measure.
//
// The pipeline works on flat sorted data throughout: the structural
// postings intersect as bitmaps, range queries return sorted posting lists
// with aligned distances that narrow the candidate set by merge/galloping
// joins, and all intermediate storage comes from a per-searcher scratch
// pool, so a steady-state query allocates almost nothing beyond its
// Result. Verification runs best-first (ascending partition lower bound)
// across a worker pool; answers are deterministic for any worker count.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/iso"
	"pis/internal/partition"
)

// Options tunes the PIS filtering stage. The paper's ε cut (Algorithm 2
// line 5) is fixed at 0: a class present in every graph cannot prune and
// runs no range query.
type Options struct {
	// Lambda scales the selectivity cutoff: graphs without an in-range
	// fragment contribute λσ to w(g) (Figure 11 sweeps λ). Default 1.
	Lambda float64
	// VerifyWorkers parallelizes candidate verification across goroutines
	// (0 = GOMAXPROCS, 1 = serial). Answers and distances are identical
	// for any setting.
	VerifyWorkers int

	// PlannerOff disables the cost-based fragment-expansion planner and
	// runs every usable fragment's σ range query, class by class — the
	// paper's Algorithm 2. The planner only reorders and skips range
	// queries; answers are identical either way.
	PlannerOff bool
}

func (o Options) normalized() Options {
	if o.Lambda <= 0 {
		o.Lambda = 1
	}
	return o
}

// Stats instruments one search. The stages run cheapest per candidate
// first — posting intersection, prescreen, σ range queries, partition
// bound, branch-and-bound — and the counters trace the funnel in that
// order over the indexed base:
//
//	StructCandidates + live delta − PrescreenRejects ≥ RangeCandidates ≥ DistCandidates
//
// StructCandidates counts the posting intersection before the prescreen
// (the paper's Yt); PrescreenRejects counts what the prescreen refuted of
// it and of the live delta graphs a mutation snapshot adds, unindexed, to
// the candidate set; RangeCandidates and DistCandidates count prescreen
// survivors of the base. Result.Candidates holds what reached the
// verification stage, so on the PIS path len(Candidates) ==
// VerifyCacheHits + Verified. Searcher.CountCandidates runs no prescreen,
// so its counters are the paper's. InvariantRejects is the part of
// PrescreenRejects the structural invariants refuted.
//
// The pipeline never sets VerifyCacheHits, MemoHits or Refreshed: they
// describe a search a segment answered from its result memo, carrying the
// still-live answers over and verifying only the graphs inserted since
// (Verified there, Refreshed once merged with shards that ran the pipeline).
type Stats struct {
	// QueryFragments counts the query's fragments materialized (see
	// Searcher.filter), UsedFragments those of them in a class that is not
	// present in every graph.
	QueryFragments    int
	UsedFragments     int
	ExpandedFragments int // fragments whose σ range query actually ran
	PartitionSize     int // fragments in the chosen partition
	StructCandidates  int // graphs passing structure-only intersection (Yt)
	RangeCandidates   int // graphs surviving the σ range-list intersection
	DistCandidates    int // after partition lower-bound pruning (Yp, |CQ|)
	PrescreenRejects  int // candidates refuted by the prescreen, either tier
	InvariantRejects  int // of those, by the graph invariants (graph.Invariants.Admits)
	VerifyCacheHits   int // answers carried over from a segment's result memo
	Verified          int // candidates actually branch-and-bound verified
	VerifyNodes       int // branch-and-bound nodes those verifications expanded
	MemoHits          int // segments that answered from their result memo
	Refreshed         int // graphs those memo hits verified to catch up
	// PlanTime is the class scoring + ordering slice of FilterTime,
	// not a disjoint stage: FilterTime covers the whole filtering stage
	// (planning included), so stage times sum as FilterTime + VerifyTime.
	PlanTime   time.Duration
	FilterTime time.Duration
	VerifyTime time.Duration
	// Partial marks a result cut short by context cancellation: Answers
	// is a correct subset of the full answer set (only fully verified
	// graphs are admitted), but graphs whose verification was aborted are
	// missing.
	Partial bool
}

// Expansion is one σ range query the planner paid for. Gains count
// eliminated candidates, all of which would otherwise have been verified.
type Expansion struct {
	Class         int     // index.Class.ID of the fragment's class
	EstimatedGain float64 // |candidates| × (1 − estimated survival) when it was chosen
	ObservedGain  int     // candidates its range list removed
}

// Result is the outcome of one search.
type Result struct {
	// Answers are the graph ids with d(Q,G) <= σ, ascending.
	Answers []int32
	// Distances holds the exact superimposed distance of each answer,
	// aligned with Answers.
	Distances []float64
	// Candidates are the graph ids that reached verification, ascending.
	Candidates []int32
	Stats      Stats
	// Expansions lists the σ range queries the planner ran, in order, with
	// the gain it expected of each and the gain it saw. Per-search detail
	// for traces: merges do not carry it and the cluster wire drops it.
	Expansions []Expansion
}

// PanicError wraps a panic recovered in a verification worker. The
// context-aware search paths return it as an error so one poisonous
// query cannot take down the process; the legacy non-context paths
// re-panic the original value, preserving their contract.
type PanicError struct{ Val any }

func (e *PanicError) Error() string { return fmt.Sprintf("core: panic during verification: %v", e.Val) }

// Rethrow resurfaces a recovered verification panic on the legacy
// non-context paths; any other error (only cancellation, impossible with
// a background context) passes through silently.
func Rethrow(err error) {
	var pe *PanicError
	if errors.As(err, &pe) {
		panic(pe.Val)
	}
}

// View is an immutable snapshot of the mutable overlay of one database
// segment: graphs appended after the index was built (the delta) and
// graphs deleted since (the tombstones). Ids are segment-local — base
// graph i keeps id i, delta graph j has id len(base)+j — and the
// tombstone set covers that combined id space. The zero View is the
// unmutated database, and every search path treats it as such at zero
// cost.
//
// A View is captured once per request under the segment's lock and then
// used lock-free: Tombs is copy-on-write and Delta append-only, so the
// snapshot stays internally consistent for the whole search even while
// mutations land concurrently (per-request snapshot semantics).
type View struct {
	// Tombs marks deleted local ids; nil = none.
	Tombs *index.Tombstones
	// Delta holds the graphs appended after the index build, in insertion
	// order. They are unindexed: searches verify them directly, exactly
	// like the paper's naive baseline does for the whole database.
	Delta []*graph.Graph
}

// appendLiveDelta appends the local ids of non-deleted delta graphs
// (base+i for delta position i) to dst.
func (v View) appendLiveDelta(dst []int32, base int) []int32 {
	for i := range v.Delta {
		if id := int32(base + i); !v.Tombs.Has(id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Searcher runs SSSD queries against one database + index pair. It is
// safe for concurrent use; per-query working memory comes from an
// internal scratch pool.
type Searcher struct {
	db     []*graph.Graph
	idx    *index.Index
	metric distance.Metric
	opts   Options
	pool   sync.Pool // *scratch
	vpool  sync.Pool // *iso.Verifier: host scratch and tables outlive a query

	// vFloor / eFloor are the metric's label-mismatch cost floors
	// (distance.CostFloors), feeding the prescreen's label-deficit bound.
	vFloor, eFloor float64
	// rangeQueryCost / verifyCandCost are EWMAs (float64 bits) of the
	// counted cost of one σ range query and of verifying one candidate, at
	// the planner's prices — its learned filter/verify exchange rate. Zero
	// until a search has observed them; updated losslessly enough by a
	// single CAS (a lost race drops one sample of a smoothed average).
	rangeQueryCost atomic.Uint64
	verifyCandCost atomic.Uint64
	// survival holds one more such EWMA per (class, ⌊σ⌋ bucket): of
	// |candidates after| ÷ |candidates before| over the times that class's
	// range query ran on prescreened candidates — what a range query of
	// the class really leaves standing. Once observed a cell replaces the
	// class's static in-range estimate in plan; nil with the planner off.
	// searches counts planned searches, so every plannerExploreEvery-th
	// can plan on the static priors alone.
	survival []atomic.Uint64
	searches atomic.Uint64
}

// survivalBuckets is the number of ⌊σ⌋ cells per class; the last one
// takes every σ ≥ survivalBuckets-1, as the static histogram's does.
const survivalBuckets = 9

// plannerExploreEvery is the period of searches planned without the
// learned survival rates. A class whose learned rate says "never pays" is
// never expanded again and so never re-observed; the static priors rank
// it as they always did, and if it has started to pay the observation
// corrects the cell.
const plannerExploreEvery = 32

// The planner's prices, in ns on a 2-vCPU Xeon VM, of work a search
// counts: a range query's probe units (Class.ProbeCost) and returned ids,
// a verification's branch-and-bound nodes and candidates. Only their
// ratios reach the planner, so a query plans alike however busy the
// machine is. BenchmarkPlannerPrices refits them there at 15–21, 17–21,
// 65–81 and 1,345–1,580; at these picks a fresh searcher over 3,000
// molecules learns ρ = 24 for Q16 at σ = 2 and 36 for Q24 at σ = 1.
const priceProbe, priceID, priceNode, priceCand = 22, 23, 68, 1070

// minSurvival floors a learned survival rate, keeping an observed cell
// distinguishable from an empty one (zero bits) when a range query
// eliminated every candidate.
const minSurvival = 1.0 / 1024

// NewSearcher builds a Searcher over db, the graph set idx was built over,
// and pairs the two (index.Pair); a db of another size is a caller's bug
// and panics. The metric is the one the index was built with; opts zero
// value gives the paper's defaults.
func NewSearcher(db []*graph.Graph, idx *index.Index, opts Options) *Searcher {
	if err := idx.Pair(db); err != nil {
		panic(err)
	}
	s := &Searcher{db: db, idx: idx, metric: idx.Options().Metric, opts: opts.normalized()}
	s.vFloor, s.eFloor = distance.CostFloors(s.metric)
	if !s.opts.PlannerOff {
		s.survival = make([]atomic.Uint64, len(idx.Classes())*survivalBuckets)
	}
	return s
}

func (s *Searcher) survivalCell(c *index.Class, sigma float64) *atomic.Uint64 {
	b := survivalBuckets - 1
	if sigma < survivalBuckets-1 {
		b = int(sigma) // sigma >= 0 in every caller
	}
	return &s.survival[c.ID*survivalBuckets+b]
}

// SurvivalCell is one observed cell of the planner's learned state.
type SurvivalCell struct {
	Class       int     // index.Class.ID
	SigmaBucket int     // ⌊σ⌋, the last bucket open-ended
	Survival    float64 // EWMA of |candidates after| ÷ |candidates before|
}

// LearnedSurvival returns the cells observed so far, by class then σ
// bucket; empty when the searcher does not learn or is still cold.
func (s *Searcher) LearnedSurvival() []SurvivalCell {
	var out []SurvivalCell
	for i := range s.survival {
		if v := math.Float64frombits(s.survival[i].Load()); v > 0 {
			out = append(out, SurvivalCell{Class: i / survivalBuckets, SigmaBucket: i % survivalBuckets, Survival: v})
		}
	}
	return out
}

// ewmaObserve folds sample x into the EWMA stored in a as float64 bits
// (α = 1/8; the first sample seeds it). Lossy on CAS races by design.
func ewmaObserve(a *atomic.Uint64, x float64) {
	old := a.Load()
	prev := math.Float64frombits(old)
	next := x
	if prev > 0 {
		next = prev + (x-prev)/8
	}
	a.CompareAndSwap(old, math.Float64bits(next))
}

// observeCosts prices a completed search's range queries, one by one, and
// its verified candidates, on average, for the exchange rate.
func (s *Searcher) observeCosts(infos []fragInfo, st *Stats) {
	for _, fi := range infos {
		ewmaObserve(&s.rangeQueryCost, priceProbe*fi.qf.Class.ProbeCost()+priceID*float64(fi.list.Len()))
	}
	if st.Verified > 0 {
		ewmaObserve(&s.verifyCandCost, (priceNode*float64(st.VerifyNodes)+priceCand*float64(st.Verified))/float64(st.Verified))
	}
}

// exchangeRate returns the learned break-even elimination count ρ =
// (cost of one range query) / (cost of verifying one candidate), clamped
// to [1, 1024], or 0 before both costs have been observed.
func (s *Searcher) exchangeRate() int {
	r := math.Float64frombits(s.rangeQueryCost.Load())
	v := math.Float64frombits(s.verifyCandCost.Load())
	if r <= 0 || v <= 0 {
		return 0
	}
	return int(min(max(r/v, 1), 1024))
}

// The planner's cold-start thresholds, until both costs are observed.
const (
	coldBudget    = 1
	coldCrossover = 16
)

// thresholds returns the planner's budget — the fewest eliminations a
// range query must be estimated, and observed, to deliver — and its
// crossover, the candidate count at which filtering stops. Both are the
// learned exchange rate ρ once there is one and learned is set: a range
// query that cannot eliminate ρ candidates costs more than the
// verification it saves.
func (s *Searcher) thresholds(learned bool) (budget float64, crossover int) {
	if rho := s.exchangeRate(); learned && rho > 0 {
		return float64(rho), rho
	}
	return coldBudget, coldCrossover
}

// DB returns the database the searcher answers over.
func (s *Searcher) DB() []*graph.Graph { return s.db }

// Index returns the underlying fragment index.
func (s *Searcher) Index() *index.Index { return s.idx }

// fragInfo is one usable query fragment with its range-query result and
// dynamic selectivity (Algorithm 2 lines 6-18).
type fragInfo struct {
	qf   index.QueryFragment
	list *index.PostingList // in-range ids ascending, distances aligned
	w    float64            // dynamic selectivity
}

// classSlot is one usable class of the query in expansion order.
type classSlot struct {
	c        *index.Class
	p, score float64               // estimated survival, pruning power per unit probe cost
	frags    []index.QueryFragment // nil until materialized
}

// scratch is the reusable per-query working memory. Everything in it is
// sized by previous queries and reused, so a steady-state search touches
// the allocator only for its Result.
type scratch struct {
	frags      index.FragmentScratch // the walk and the materialized fragments' slabs
	lists      []*index.PostingList  // per-fragment range results
	rbuf       index.RangeBuffer     // shared dedup/probe scratch for all range queries
	infos      []fragInfo
	bufA, bufB []int32 // candidate set double buffer
	lbs        []float64
	cursors    []int
	classes    []*index.Class // the query's classes
	slots      []classSlot    // its usable classes in expansion order
	expansions []Expansion    // the planner's range queries, for Result.Expansions
	vertexSets [][]int32
	weights    []float64
	part       []int
	vorder     []int32 // verification order (indices into candidates)
	vdists     []float64
	screen     Screen // the current query's prescreen, set by filter
}

func (s *Searcher) getScratch() *scratch {
	if v := s.pool.Get(); v != nil {
		return v.(*scratch)
	}
	return &scratch{}
}

func (s *Searcher) putScratch(sc *scratch) {
	// Zero the element storage (not just the length) so pooled scratches
	// do not pin the last query's fragment slices; the backing arrays
	// themselves stay for reuse.
	clear(sc.infos[:cap(sc.infos)])
	sc.infos = sc.infos[:0]
	clear(sc.vertexSets[:cap(sc.vertexSets)])
	sc.vertexSets = sc.vertexSets[:0]
	sc.screen = Screen{}
	s.pool.Put(sc)
}

// postingList returns the i-th reusable posting-list buffer, keeping the
// grown backing slices of previous queries.
func (sc *scratch) postingList(i int) *index.PostingList {
	for len(sc.lists) <= i {
		sc.lists = append(sc.lists, new(index.PostingList))
	}
	return sc.lists[i]
}

// SearchNaive verifies every graph in the database.
func (s *Searcher) SearchNaive(q *graph.Graph, sigma float64) Result {
	return s.SearchNaiveView(q, sigma, View{})
}

// SearchNaiveView is SearchNaive over a mutation snapshot: every live
// graph — base minus tombstones plus live delta — is verified.
func (s *Searcher) SearchNaiveView(q *graph.Graph, sigma float64, view View) Result {
	var r Result
	n := len(s.db)
	r.Candidates = make([]int32, 0, n+len(view.Delta))
	for i := 0; i < n; i++ {
		if id := int32(i); !view.Tombs.Has(id) {
			r.Candidates = append(r.Candidates, id)
		}
	}
	r.Candidates = view.appendLiveDelta(r.Candidates, n)
	r.Stats.StructCandidates = len(r.Candidates)
	r.Stats.RangeCandidates = len(r.Candidates)
	r.Stats.DistCandidates = len(r.Candidates)
	sc := s.getScratch()
	err := s.verify(q, sigma, 0, &r, nil, sc, view, nil)
	s.putScratch(sc)
	Rethrow(err)
	r.Stats.record(mQueriesNaive)
	return r
}

// Search runs the full PIS pipeline (Algorithm 2).
func (s *Searcher) Search(q *graph.Graph, sigma float64) Result {
	r, err := s.SearchViewCtx(context.Background(), q, sigma, View{})
	Rethrow(err)
	return r
}

// CountCandidates runs the filtering stage alone over the indexed base,
// with the prescreen off: the paper's candidate-counting experiment
// (Figures 8-12). It returns the paper's counters — Yt is
// StructCandidates, the intersection SearchTopoPrune verifies, and Yp is
// DistCandidates — with FilterTime and the fragment counts. The planner,
// when on, plans on its static priors and cold-start thresholds, so the
// counts depend on the query alone. It learns nothing and publishes
// nothing.
func (s *Searcher) CountCandidates(q *graph.Graph, sigma float64) Stats {
	var st Stats
	start := time.Now()
	sc := s.getScratch()
	s.filter(q, sigma, &st, sc, View{}, nil, false)
	s.putScratch(sc)
	st.FilterTime = time.Since(start)
	return st
}

// SearchViewCtx runs the PIS pipeline over a mutation snapshot: the
// indexed base is filtered as usual (range queries and postings skip
// tombstoned ids), and the live delta graphs join the candidate set with
// a zero lower bound, so the best-first verifier handles them first and
// the answer set is exactly a fresh index over the surviving graphs.
// Cancellation is polled at the range-expansion boundaries of the
// filter, between verification claims, and inside the branch-and-bound
// verifier itself (amortized — see iso.Verifier.SetDone), so a canceled
// query frees its workers within about one verification granule. A
// canceled query returns the context error together with a partial
// Result (Stats.Partial set): every returned answer is fully verified,
// graphs whose verification was cut short are simply missing. A panic in
// a verification worker is recovered and returned as a *PanicError.
func (s *Searcher) SearchViewCtx(ctx context.Context, q *graph.Graph, sigma float64, view View) (Result, error) {
	r, err := s.search(ctx, q, sigma, 0, view)
	r.Stats.Publish()
	return r, err
}

// search is the pipeline of SearchViewCtx and SearchKNNViewCtx: filter at
// sigma, join the delta, verify under verify's budget for k.
func (s *Searcher) search(ctx context.Context, q *graph.Graph, sigma float64, k int, view View) (Result, error) {
	var r Result
	start := time.Now()
	done := ctx.Done() // nil for background contexts: zero overhead
	sc := s.getScratch()
	cands, lbs := s.filter(q, sigma, &r.Stats, sc, view, done, true)
	if len(sc.expansions) > 0 {
		r.Expansions = slices.Clone(sc.expansions)
	}
	r.Candidates = append(make([]int32, 0, len(cands)+len(view.Delta)), cands...)
	r.Candidates, lbs = s.joinDelta(sigma, r.Candidates, lbs, sc, view, &r.Stats)
	r.Stats.FilterTime = time.Since(start)
	err := s.verify(q, sigma, k, &r, lbs, sc, view, done)
	if err == nil && ctx.Err() != nil {
		r.Stats.Partial = true
		mQueriesCanceled.Inc()
		err = ctx.Err()
	}
	if err == nil {
		s.observeCosts(sc.infos, &r.Stats)
	}
	s.putScratch(sc)
	return r, err
}

// queryClasses finds the query's classes — sc.classes, for the
// structural intersection — and returns as expansion slots, in class
// order, the usable ones: those not present in every graph (Algorithm 2
// line 5 at ε = 0). With the planner off every class is materialized up
// front, as Algorithm 2 enumerates every fragment; otherwise a class
// waits until planned.
func (s *Searcher) queryClasses(q *graph.Graph, st *Stats, sc *scratch) []classSlot {
	sc.frags.Reset()
	sc.classes = s.idx.QueryClasses(sc.classes[:0], q, &sc.frags)
	slots := sc.slots[:0]
	for _, c := range sc.classes {
		sl := classSlot{c: c}
		if s.opts.PlannerOff {
			sl.frags = s.idx.ClassFragments(q, c, &sc.frags)
			st.QueryFragments += len(sl.frags)
		}
		if c.GraphCount() < len(s.db) {
			slots = append(slots, sl)
			st.UsedFragments += len(sl.frags)
		}
	}
	sc.slots = slots
	return slots
}

// plan ranks the usable classes by estimated pruning power per unit
// range-query cost, and reports false, leaving class order — the paper's
// Algorithm 2 — when the planner is off. A class's estimated survival —
// the share of the candidates its range query would leave standing — is
// its learned rate at this σ once one was observed (see
// Searcher.survival), and the in-range fraction of its build-time
// distance histogram until then — or throughout, when learned is false
// and on every plannerExploreEvery-th search where it is true.
// Determinism: score ties keep class order (stable sort).
func (s *Searcher) plan(slots []classSlot, sigma float64, learned bool) bool {
	if s.opts.PlannerOff {
		return false
	}
	if learned && s.searches.Add(1)%plannerExploreEvery == 0 {
		learned = false
		mPlannerExplore.Inc()
	}
	for i := range slots {
		c, p := slots[i].c, 0.0
		if learned {
			p = math.Float64frombits(s.survivalCell(c, sigma).Load())
		}
		if p == 0 {
			p = c.PlanStats().InRangeFrac(sigma)
		}
		slots[i].p, slots[i].score = p, (1-p)/c.ProbeCost()
	}
	slices.SortStableFunc(slots, func(a, b classSlot) int { return cmp.Compare(b.score, a.score) })
	return true
}

// filter runs the PIS filtering stage (Algorithm 2 lines 3-23) and
// returns the surviving candidate ids ascending plus, when a partition
// was applied, the Eq. 2 lower bound aligned per candidate. Tombstoned
// ids never appear in the result: range queries skip them at record time
// and the no-fragment fallback skips them while enumerating. Both slices
// are scratch-backed: valid only until the scratch is reused.
//
// Stages run in order of cost per candidate. The candidate set is seeded
// with the structural postings intersection of the query's classes — one
// bitmap per class, a handful per query, found by embedding each class
// skeleton without listing a fragment. The
// prescreen (tens of nanoseconds a candidate) thins it next, so every
// gain the planner estimates or observes afterwards is counted in
// candidates that would really have been verified. Range queries
// then expand class by class in planner order (pruning power per unit
// cost), a class's fragments materialized when it is reached; the planner
// skips a class whose estimated eliminations fall below its budget and
// stops entirely once the surviving set is within its crossover of going
// straight to verification (thresholds).
// Skipping range queries can only leave extra candidates behind, and
// verification is exact, so answers never change; only the filtering
// effort and the per-stage counters do.
//
// verifying is false for CountCandidates, whose candidates go nowhere:
// then no prescreen runs, the planner plans on its static priors and
// cold-start thresholds, and nothing is learned or counted in metrics —
// gains there would be counted in candidates nobody would have verified.
func (s *Searcher) filter(q *graph.Graph, sigma float64, st *Stats, sc *scratch, view View, done <-chan struct{}, verifying bool) (cands []int32, lbs []float64) {
	n := len(s.db)
	tombs := view.Tombs
	learn := verifying && s.survival != nil
	sc.expansions, sc.infos = sc.expansions[:0], sc.infos[:0]
	slots := s.queryClasses(q, st, sc)
	planStart := time.Now()
	planned := len(slots) > 0 && s.plan(slots, sigma, learn)
	st.PlanTime = time.Since(planStart)
	// One class is materialized even if no range query runs, so that the
	// fragment counters describe every query holding an indexed fragment:
	// the one ranked first, usually expanded anyway, or with none usable
	// the query's first.
	switch {
	case len(slots) > 0 && slots[0].frags == nil:
		slots[0].frags = s.idx.ClassFragments(q, slots[0].c, &sc.frags)
		st.QueryFragments += len(slots[0].frags)
		st.UsedFragments += len(slots[0].frags)
	case len(slots) == 0 && len(sc.classes) > 0 && st.QueryFragments == 0:
		st.QueryFragments = len(s.idx.ClassFragments(q, sc.classes[0], &sc.frags))
	}

	// Structural intersection: Yt, and the seed candidate set.
	cur := s.structuralCandidates(sc, tombs)
	st.StructCandidates = len(cur)
	if verifying {
		sc.screen = s.NewScreen(q, view)
		cur = s.prescreen(sigma, cur, sc, st)
	}

	if len(slots) == 0 {
		// No usable class: every live graph stays a candidate.
		st.RangeCandidates = len(cur)
		st.DistCandidates = len(cur)
		return cur, nil
	}

	budget, crossover := 0.0, 0
	if planned {
		budget, crossover = s.thresholds(verifying)
	}

	// Lines 6-18: one σ range query per expanded fragment; intersect the
	// in-range id lists by sorted merge/gallop join, stopping early once
	// empty; compute dynamic selectivities.
	infos := sc.infos
	nxt := sc.bufB[:0]
	dryStreak := 0
expand:
	for i := range slots {
		sl := &slots[i]
		if len(cur) <= crossover || canceled(done) {
			// Stop expanding: the surviving (over-approximate) candidate
			// set stays correct, and verification will bail out just as
			// fast. One poll per range query, never per candidate.
			break
		}
		if planned && float64(len(cur))*(1-sl.p) < budget {
			continue // skipped whole, its fragments never materialized
		}
		if sl.frags == nil {
			sl.frags = s.idx.ClassFragments(q, sl.c, &sc.frags)
			st.QueryFragments += len(sl.frags)
			st.UsedFragments += len(sl.frags)
		}
		for _, qf := range sl.frags {
			if len(cur) <= crossover || canceled(done) {
				break expand
			}
			before := len(cur)
			estimate := float64(before) * (1 - sl.p)
			if planned && estimate < budget {
				break // the class's remaining fragments estimate the same
			}
			pl := sc.postingList(len(infos))
			s.idx.RangeQueryInto(qf, sigma, pl, &sc.rbuf, tombs)
			sum := 0.0
			for _, d := range pl.Dists {
				sum += d
			}
			w := sum/float64(n) + float64(n-pl.Len())/float64(n)*s.opts.Lambda*sigma
			infos = append(infos, fragInfo{qf: qf, list: pl, w: w})
			nxt = intersectSorted(nxt[:0], cur, pl.IDs)
			cur, nxt = nxt, cur
			if learn {
				// before > 0: the loop leaves on an empty candidate set.
				ewmaObserve(s.survivalCell(qf.Class, sigma), max(float64(len(cur))/float64(before), minSurvival))
			}
			if planned {
				sc.expansions = append(sc.expansions, Expansion{Class: qf.Class.ID, EstimatedGain: estimate, ObservedGain: before - len(cur)})
				// Observed marginal gain: with classes in descending
				// estimated-power order, a streak of below-budget
				// expansions means the remaining tail cannot pay for itself.
				if float64(before-len(cur)) < budget {
					if dryStreak++; dryStreak >= plannerPatience {
						break expand
					}
				} else {
					dryStreak = 0
				}
			}
		}
	}

	st.RangeCandidates = len(cur)

	// Lines 19-20: overlapping-relation graph + MWIS partition.
	if len(cur) > 0 && len(infos) > 0 {
		vertexSets := sc.vertexSets[:0]
		weights := sc.weights[:0]
		for _, fi := range infos {
			vertexSets = append(vertexSets, fi.qf.Vertices)
			weights = append(weights, fi.w)
		}
		sc.vertexSets, sc.weights = vertexSets, weights
		og := partition.NewOverlapGraph(vertexSets, weights)
		part := sc.part[:0]
		for _, c := range partition.Greedy(og) {
			part = append(part, int(c))
		}
		sc.part = part
		st.PartitionSize = len(part)

		// Lines 21-23: prune by the partition lower bound. Candidates and
		// every fragment list are ascending, so one galloping cursor per
		// partition fragment retrieves d(g, G) without hashing; a missing
		// id means the fragment distance exceeds σ, so the bound does too.
		cursors := sc.cursors[:0]
		for range part {
			cursors = append(cursors, 0)
		}
		sc.cursors = cursors
		lbs = sc.lbs[:0]
		out := cur[:0]
		for _, id := range cur {
			sum := 0.0
			ok := true
			for pi, f := range part {
				ids := infos[f].list.IDs
				c := gallopTo(ids, cursors[pi], id)
				cursors[pi] = c
				if c == len(ids) || ids[c] != id {
					ok = false
					break
				}
				sum += infos[f].list.Dists[c]
			}
			if ok && sum <= sigma {
				out = append(out, id)
				lbs = append(lbs, sum)
			}
		}
		cur = out
		sc.lbs = lbs
	}
	sc.infos = infos
	st.ExpandedFragments = len(infos)
	if planned && verifying {
		// A class skipped whole counts as one skip: its fragments were
		// never materialized.
		skipped := -len(infos)
		for _, sl := range slots {
			skipped += max(len(sl.frags), 1)
		}
		mPlannerSkipped.Add(int64(skipped))
	}
	st.DistCandidates = len(cur)
	sc.bufA, sc.bufB = cur, nxt
	return cur, lbs
}

// structuralCandidates intersects the structural postings of the query's
// distinct classes (topoPrune's filter, sc.classes) minus the tombstoned
// ids. The result is scratch-backed.
func (s *Searcher) structuralCandidates(sc *scratch, tombs *index.Tombstones) []int32 {
	sc.bufA = s.idx.Candidates(sc.bufA[:0], sc.classes, tombs)
	return sc.bufA
}

// plannerPatience is how many consecutive below-budget range queries the
// planner tolerates before ending expansion: classes run in descending
// estimated-power order, so two dry expansions in a row mean the rest of
// the tail is overwhelmingly likely to be dry too.
const plannerPatience = 2

// minParallelVerify is the candidate count below which goroutine fan-out
// costs more than it saves.
const minParallelVerify = 8

func (s *Searcher) verifyWorkers(n int) int {
	w := s.opts.VerifyWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if n < minParallelVerify || w < 1 {
		w = 1
	}
	return w
}

// orderByLB sorts candidate indices ascending by partition lower bound
// (nil lbs keeps the given ascending-id order), so the likeliest answers
// are verified first; stability keeps ascending-id order within ties.
func orderByLB(order []int32, lbs []float64) {
	if lbs != nil {
		slices.SortStableFunc(order, func(i, j int32) int { return cmp.Compare(lbs[i], lbs[j]) })
	}
}

// Graph resolves a segment-local id against the base database or the
// view's delta overlay (ids >= len(base) are delta positions).
func (s *Searcher) Graph(view View, id int32) *graph.Graph {
	if int(id) < len(s.db) {
		return s.db[id]
	}
	return view.Delta[int(id)-len(s.db)]
}

// Screen is one query's prescreen: the cheap tests that refute a graph
// without verifying it. The pipeline's prescreen and a result memo's
// catch-up share it, so a graph is refuted alike on both paths.
type Screen struct {
	s    *Searcher
	view View
	iv   graph.Invariants
	fp   graph.QueryFP
}

// NewScreen readies q's prescreen over view.
func (s *Searcher) NewScreen(q *graph.Graph, view View) Screen {
	return Screen{s: s, view: view, iv: q.Invariants(), fp: graph.NewQueryFP(q, s.vFloor, s.eFloor)}
}

// Refutes reports whether a cheap tier proves that graph id (local to the
// screen's view) is not within sigma of the query, counting the refutation
// in st: the graph's fingerprint, whose structure and label bounds prove
// d > sigma, then its invariants, which prove the query's skeleton does not
// fit the graph at any sigma. Both are admissible, so a refuted graph is
// never an answer; a caller whose radius only shrinks may pass the current
// one.
func (p *Screen) Refutes(id int32, sigma float64, st *Stats) bool {
	g := p.s.Graph(p.view, id)
	if !p.fp.Admissible(g.FP(), sigma) {
		st.PrescreenRejects++
		return true
	}
	if !g.Invariants().Admits(p.iv) {
		st.PrescreenRejects++
		st.InvariantRejects++
		return true
	}
	return false
}

// prescreen drops from ids, in place, the candidates the query's screen
// refutes at sigma.
func (s *Searcher) prescreen(sigma float64, ids []int32, sc *scratch, st *Stats) []int32 {
	kept := ids[:0]
	for _, id := range ids {
		if !sc.screen.Refutes(id, sigma, st) {
			kept = append(kept, id)
		}
	}
	return kept
}

// joinDelta appends the view's live delta graphs to cands. They are
// unindexed, so no filter stage has seen them: the prescreen runs on them
// here, and each joins with a zero lower bound (when lbs is in use), so
// best-first verification takes them first.
func (s *Searcher) joinDelta(sigma float64, cands []int32, lbs []float64, sc *scratch, view View, st *Stats) ([]int32, []float64) {
	if len(view.Delta) == 0 {
		return cands, lbs
	}
	nb := len(cands)
	cands = view.appendLiveDelta(cands, len(s.db))
	cands = cands[:nb+len(s.prescreen(sigma, cands[nb:], sc, st))]
	if lbs != nil {
		for i := nb; i < len(cands); i++ {
			lbs = append(lbs, 0)
		}
		sc.lbs = lbs
	}
	return cands, lbs
}

// verify computes the true superimposed distance of every candidate by
// exact branch-and-bound, best-first (ascending partition lower bound)
// across a worker pool, counting the nodes expanded in
// r.Stats.VerifyNodes, which search prices for the planner's exchange
// rate. On the PIS path the candidates are prescreen survivors
// (filter, joinDelta); the baseline paths (naive, topoPrune) hand over
// every candidate, which keeps them valid differential references.
//
// The answer set is deterministic for any worker count: with k = 0 every
// candidate is verified against the same fixed budget σ, and answers are
// assembled in ascending id order afterwards. With k > 0 (a kNN query)
// each claim's budget is the smaller of σ and the k-th smallest distance
// found so far (kthBound). A graph within the final k-th distance is
// within every budget it met, so its distance is exact for any worker
// count; a graph a tighter budget cut off is strictly farther than the
// final k-th, so it cannot be one of the k nearest. A non-nil done
// channel aborts the pool early; unverified candidates keep an infinite
// distance, so they are conservatively excluded and the partial answer
// set stays a subset of the full one. The returned error is a *PanicError when a worker
// panicked, nil otherwise.
func (s *Searcher) verify(q *graph.Graph, sigma float64, k int, r *Result, lbs []float64, sc *scratch, view View, done <-chan struct{}) error {
	start := time.Now()
	defer func() { r.Stats.VerifyTime = time.Since(start) }()
	r.Answers = []int32{}
	cands := r.Candidates
	nc := len(cands)
	if nc == 0 {
		return nil
	}
	dists, order := sc.vdists[:0], sc.vorder[:0]
	for i := 0; i < nc; i++ {
		// Infinite, not zero: a candidate whose verification never ran
		// (cancellation, sibling panic) must not read as distance 0.
		dists = append(dists, distance.Infinite)
		order = append(order, int32(i))
	}
	sc.vdists, sc.vorder = dists, order
	r.Stats.Verified = nc
	orderByLB(order, lbs)
	var kth *kthBound
	if k > 0 {
		kth = newKthBound(k, sigma)
	}
	nodes, err := s.forEachCandidate(q, s.verifyWorkers(nc), nc, done, func(v *iso.Verifier, i int) {
		j := order[i]
		if kth == nil {
			dists[j] = v.Distance(s.Graph(view, cands[j]), sigma)
		} else if dists[j] = v.Distance(s.Graph(view, cands[j]), kth.budget()); !distance.IsInfinite(dists[j]) {
			kth.observe(dists[j])
		}
	})
	r.Stats.VerifyNodes = int(nodes)
	if err != nil {
		return err
	}
	for i, id := range cands {
		if d := dists[i]; !distance.IsInfinite(d) && d <= sigma {
			r.Answers = append(r.Answers, id)
			r.Distances = append(r.Distances, d)
		}
	}
	return nil
}

// VerifyEach calls fn(v, i) for i in [0, n), in order on the calling
// goroutine, with one pooled verifier reset to q and armed with done —
// what a caller needs to price a few graphs against q outside the
// pipeline (a segment's result memo catching up on inserts). It stops
// early once done closes and returns a *PanicError if fn panicked; nodes
// is the branch-and-bound work fn's Distance calls did.
func (s *Searcher) VerifyEach(q *graph.Graph, n int, done <-chan struct{}, fn func(v *iso.Verifier, i int)) (nodes uint64, err error) {
	if n == 0 {
		return 0, nil
	}
	return s.forEachCandidate(q, 1, n, done, fn)
}

// claimPollMask amortizes the done-channel poll in the claim loop: one
// poll every 16 claimed candidates (the branch-and-bound inside each
// claim polls on its own finer granule).
const claimPollMask = 15

// forEachCandidate claims indices 0..nc-1 across a worker pool, each
// worker holding one Verifier from the searcher's pool, reset to q:
// workers == 1 runs inline with no goroutines. A close of done drains the
// pool early (claimed work finishes aborted via the verifier's own done
// hook). A panic in fn is recovered, aborts every sibling at its next
// claim, and surfaces as a returned *PanicError holding the first panic
// value; that worker's verifier is dropped, not pooled. nodes is the
// branch-and-bound nodes the workers expanded, summed.
func (s *Searcher) forEachCandidate(q *graph.Graph, workers, nc int, done <-chan struct{}, fn func(v *iso.Verifier, i int)) (nodes uint64, err error) {
	var next atomic.Int64
	var nodeSum atomic.Uint64
	var abort atomic.Bool
	var panicOnce sync.Once
	var panicked *PanicError
	body := func() {
		defer func() {
			if val := recover(); val != nil {
				panicOnce.Do(func() { panicked = &PanicError{Val: val} })
				abort.Store(true)
				mVerifyPanics.Inc()
			}
		}()
		v, _ := s.vpool.Get().(*iso.Verifier)
		if v == nil {
			v = new(iso.Verifier)
		}
		v.Reset(q, s.metric)
		v.SetDone(done)
		nodes0 := v.Nodes()
		for {
			i := int(next.Add(1)) - 1
			if i >= nc || abort.Load() || (i&claimPollMask == 0 && canceled(done)) {
				break
			}
			fn(v, i)
		}
		nodeSum.Add(v.Nodes() - nodes0)
		s.vpool.Put(v)
	}
	if workers == 1 {
		body()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body()
			}()
		}
		wg.Wait()
	}
	if panicked != nil {
		return 0, panicked
	}
	return nodeSum.Load(), nil
}

// canceled is a non-blocking poll of a context done channel (nil = never
// canceled).
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// intersectSorted appends the intersection of two ascending id lists to
// dst and returns it. The shorter list drives; the longer one is advanced
// by galloping, so a tiny list against a huge one costs O(small·log big).
func intersectSorted(dst, a, b []int32) []int32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	j := 0
	for _, x := range a {
		j = gallopTo(b, j, x)
		if j == len(b) {
			break
		}
		if b[j] == x {
			dst = append(dst, x)
			j++
		}
	}
	return dst
}

// gallopTo returns the smallest index >= j with b[index] >= x, by
// exponential probing followed by binary search.
func gallopTo(b []int32, j int, x int32) int {
	if j >= len(b) || b[j] >= x {
		return j
	}
	// Invariant below: b[lo] < x and (hi == len(b) or b[hi] >= x).
	step := 1
	lo := j
	hi := j + step
	for hi < len(b) && b[hi] < x {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > len(b) {
		hi = len(b)
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if b[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
