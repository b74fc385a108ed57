// The result memo: what a read of this segment answered, kept so that the
// next identical read pays only for what writes changed since.
//
// An entry holds one query's answers as global ids with exact distances,
// plus the segment's id high-water mark in the snapshot they were computed
// over. Ids in a segment ascend in insertion order and are never reused,
// deletes are permanent, and compaction changes representation only — so
// every graph live in a later snapshot with an id at or below the mark was
// live in the entry's snapshot too, and the answer over the later snapshot
// is exactly the entry's answers that are still live plus whichever live
// graphs above the mark verify. A hit computes that inside the read's own
// snapshot and stores it as a new entry at the new mark; entries are
// immutable, and one from a snapshot ahead of the reader's is not used.
// The memo survives compaction, belongs to one Segment value (a recovered
// or freshly installed segment starts cold) and is bounded in bytes.

package segment

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"pis/internal/canon"
	"pis/internal/core"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/iso"
)

const (
	// The byte budget scales with the segment, with a floor: an answer list
	// costs 12 bytes per answer, so a fixed entry count would mean kilobytes
	// at n=1k and tens of megabytes at n=500k.
	memoFloorBytes    = 1 << 20
	memoBytesPerGraph = 64
	memoEntryOverhead = 160 // entry struct, slice headers, map slot
)

// memoKey names one repeatable read: a threshold search at sigma (k = 0),
// or a kNN search for k neighbours, whose radius lives in the entry.
type memoKey struct {
	q     string // canon.GraphKey of the query
	k     int
	sigma float64
}

// memoEntry is one immutable answer. ids ascend for a threshold search and
// run closest first (ties by id) for kNN.
type memoEntry struct {
	ids    []int32
	dists  []float64
	mark   int32   // snapshot.maxID of the snapshot answered over
	cost   int     // verifications the full run behind the entry needed
	radius float64 // kNN: the radius searched; any smaller one is a prefix
}

func (k memoKey) size(e *memoEntry) int64 {
	return int64(len(k.q)) + 12*int64(len(e.ids)) + memoEntryOverhead
}

// memo is a byte-bounded map of entries, safe for concurrent use.
type memo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
	bytes   int64
}

func (m *memo) get(k memoKey) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries[k]
}

// put stores e under k within budget bytes, evicting arbitrary entries to
// make room. It never replaces an entry by one from an older snapshot or,
// for kNN, by one that searched a smaller radius; an entry larger than the
// whole budget is not admitted.
func (m *memo) put(k memoKey, e *memoEntry, budget int64) {
	size := k.size(e)
	if size > budget {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	before := m.bytes
	if old := m.entries[k]; old != nil {
		if old.mark > e.mark || old.radius > e.radius {
			return
		}
		m.bytes -= k.size(old)
		delete(m.entries, k)
	}
	for vk, ve := range m.entries {
		if m.bytes+size <= budget {
			break
		}
		m.bytes -= vk.size(ve)
		delete(m.entries, vk)
	}
	if m.entries == nil {
		m.entries = make(map[memoKey]*memoEntry)
	}
	m.entries[k] = e
	m.bytes += size
	mMemoBytes.Add(float64(m.bytes - before))
}

// clear drops every entry.
func (m *memo) clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	mMemoBytes.Add(float64(-m.bytes))
	m.entries, m.bytes = nil, 0
}

// live reports whether the graph with global id is live in the snapshot.
func (sn *snapshot) live(id int32) bool {
	local, ok := localOf(sn.ids, sn.deltaIDs, id)
	return ok && !sn.view.Tombs.Has(local)
}

// liveOf returns e's answers still live in the snapshot, in e's order.
func (sn *snapshot) liveOf(e *memoEntry) (ids []int32, dists []float64) {
	ids, dists = make([]int32, 0, len(e.ids)), make([]float64, 0, len(e.ids))
	for i, id := range e.ids {
		if sn.live(id) {
			ids, dists = append(ids, id), append(dists, e.dists[i])
		}
	}
	return ids, dists
}

// newcomers returns the local ids of the live graphs whose global id
// exceeds e.mark, ascending; ok is false when they outnumber the
// verifications e's full run needed, and running it again is the cheaper
// way to the answer.
func (sn *snapshot) newcomers(e *memoEntry) (locals []int32, ok bool) {
	from, _ := slices.BinarySearch(sn.ids, e.mark+1)
	if from == len(sn.ids) {
		d, _ := slices.BinarySearch(sn.deltaIDs, e.mark+1)
		from += d
	}
	for local := from; local < len(sn.ids)+len(sn.deltaIDs); local++ {
		if sn.view.Tombs.Has(int32(local)) {
			continue
		}
		if len(locals) == e.cost {
			return nil, false
		}
		locals = append(locals, int32(local))
	}
	return locals, true
}

// lookup returns the entry under k when this snapshot can be answered
// from it, counting the outcome otherwise.
func (sn *snapshot) lookup(k memoKey, radius float64) (e *memoEntry, fresh []int32) {
	e = sn.memo.get(k)
	if e == nil || e.mark > sn.maxID || e.radius < radius {
		mMemoMiss.Inc()
		return nil, nil
	}
	fresh, ok := sn.newcomers(e)
	if ok && k.k > 0 && len(e.ids) == k.k {
		// A deleted neighbour's place goes to a graph the entry never
		// ranked: only the full search knows which. An entry short of k
		// holds every graph within its radius, so there it just drops out.
		ok = !slices.ContainsFunc(e.ids, func(id int32) bool { return !sn.live(id) })
	}
	if !ok {
		mMemoFallback.Inc()
		return nil, nil
	}
	mMemoHit.Inc()
	return e, fresh
}

// catchUp prices q against the fresh graphs in id order, each at the
// budget current when its turn comes: those the pipeline's prescreen
// refutes at that budget (core.Screen) are counted in st, the rest are
// verified and handed to found with their global id and distance
// (infinite beyond the budget); a hit with none builds no screen. It
// reports false when the context fired or a verification panicked; the
// caller then drops what it has and runs the full pipeline, which reports
// either its own way.
func (sn *snapshot) catchUp(ctx context.Context, q *graph.Graph, fresh []int32, st *core.Stats, budget func() float64, found func(id int32, d float64)) bool {
	start := time.Now()
	var screen core.Screen
	nodes, err := sn.srch.VerifyEach(q, len(fresh), ctx.Done(), func(v *iso.Verifier, i int) {
		if i == 0 {
			screen = sn.srch.NewScreen(q, sn.view)
		}
		b := budget()
		if screen.Refutes(fresh[i], b, st) {
			return
		}
		st.Verified++
		found(sn.global(fresh[i]), v.Distance(sn.srch.Graph(sn.view, fresh[i]), b))
	})
	st.MemoHits, st.Refreshed, st.VerifyNodes, st.VerifyTime = 1, st.Verified, int(nodes), time.Since(start)
	mMemoRefreshed.Add(int64(st.Verified))
	return err == nil && ctx.Err() == nil
}

// search answers the threshold query over the snapshot, through the memo.
func (sn *snapshot) search(ctx context.Context, q *graph.Graph, sigma float64) (core.Result, error) {
	key := memoKey{q: canon.GraphKey(q), sigma: sigma}
	if e, fresh := sn.lookup(key, 0); e != nil {
		var r core.Result
		r.Answers, r.Distances = sn.liveOf(e)
		r.Stats.VerifyCacheHits = len(r.Answers)
		r.Candidates = slices.Clone(r.Answers)
		if sn.catchUp(ctx, q, fresh, &r.Stats, func() float64 { return sigma }, func(id int32, d float64) {
			r.Candidates = append(r.Candidates, id)
			if !distance.IsInfinite(d) {
				r.Answers = append(r.Answers, id)
				r.Distances = append(r.Distances, d)
			}
		}) {
			if sn.maxID > e.mark || len(r.Answers) != len(e.ids) {
				sn.memo.put(key, &memoEntry{ids: slices.Clone(r.Answers), dists: slices.Clone(r.Distances), mark: sn.maxID, cost: e.cost}, sn.budget)
			}
			r.Stats.Publish()
			return r, nil
		}
	}
	r, err := sn.srch.SearchViewCtx(ctx, q, sigma, sn.view)
	sn.remap(&r)
	if err == nil {
		sn.memo.put(key, &memoEntry{ids: slices.Clone(r.Answers), dists: slices.Clone(r.Distances), mark: sn.maxID, cost: r.Stats.Verified}, sn.budget)
	}
	return r, err
}

// searchKNN answers the kNN query over the snapshot, through the memo. A
// hit brings the entry up to date at the entry's own radius and answers
// the asked one by prefix: deleted neighbours drop out (see lookup), new
// graphs are verified against the k-th distance (the radius while fewer
// than k are known) and take their place by (distance, id) — their ids
// exceed every id already ranked.
func (sn *snapshot) searchKNN(ctx context.Context, q *graph.Graph, k int, maxSigma float64) ([]core.Neighbor, error) {
	if k <= 0 || maxSigma < 0 {
		return nil, nil
	}
	key := memoKey{q: canon.GraphKey(q), k: k}
	if e, fresh := sn.lookup(key, maxSigma); e != nil {
		ids, dists := sn.liveOf(e)
		var st core.Stats
		if sn.catchUp(ctx, q, fresh, &st, func() float64 {
			if len(ids) >= k {
				return dists[k-1]
			}
			return e.radius
		}, func(id int32, d float64) {
			at := sort.Search(len(dists), func(i int) bool { return dists[i] > d })
			if !distance.IsInfinite(d) && at < k {
				ids, dists = slices.Insert(ids, at, id), slices.Insert(dists, at, d)
				ids, dists = ids[:min(len(ids), k)], dists[:min(len(dists), k)]
			}
		}) {
			if sn.maxID > e.mark || len(ids) != len(e.ids) {
				sn.memo.put(key, &memoEntry{ids: ids, dists: dists, mark: sn.maxID, cost: e.cost, radius: e.radius}, sn.budget)
			}
			ns := make([]core.Neighbor, 0, len(ids))
			for i, id := range ids {
				if dists[i] <= maxSigma {
					ns = append(ns, core.Neighbor{ID: id, Distance: dists[i]})
				}
			}
			return ns, nil
		}
	}
	ns, verified, err := sn.srch.SearchKNNViewCtx(ctx, q, k, maxSigma, sn.view)
	e := &memoEntry{mark: sn.maxID, cost: verified, radius: maxSigma}
	for i := range ns {
		ns[i].ID = sn.global(ns[i].ID)
		e.ids, e.dists = append(e.ids, ns[i].ID), append(e.dists, ns[i].Distance)
	}
	if err == nil {
		sn.memo.put(key, e, sn.budget)
	}
	return ns, err
}
