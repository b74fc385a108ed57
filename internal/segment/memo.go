// The result memo: what a read of this segment answered, kept so that the
// next read of its query pays only for what writes changed since.
//
// An entry holds one query's answers as global ids with exact distances,
// plus the segment's id high-water mark in the snapshot they were computed
// over. Ids in a segment ascend in insertion order and are never reused,
// deletes are permanent, and compaction changes representation only — so
// every graph live in a later snapshot with an id at or below the mark was
// live in the entry's snapshot too, and the answer over the later snapshot
// is exactly the entry's answers that are still live plus whichever live
// graphs above the mark verify, for any read within the radius where the
// entry holds every graph (read). A read stores that as a new immutable
// entry at its own snapshot's mark and uses none from a snapshot ahead of
// its own. The memo survives compaction and belongs to one Segment value
// (a recovered or new segment starts cold).
//
// It holds 64 bytes per graph of the segment, at least 1 MiB. A query's
// first entry waits on probation, at most an eighth of that, and a later
// read of the query (hit, covered, fallback or miss) moves its entries to
// protected, so on distinct-query traffic answers no read comes back to
// leave first and reused ones stay; pis_result_memo_evictions_total counts
// what each list lost.

package segment

import (
	"cmp"
	"container/list"
	"context"
	"math"
	"slices"
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
	memoEntryOverhead = 160 // entry struct, slice headers, map slot, list element
)

// memoKey names one read: a threshold search at sigma (k = 0), or a kNN
// search for k neighbours within radius sigma. The memo is keyed by the
// query alone, memoKey{q: ...}; a query's entries are linked through next.
type memoKey struct {
	q     string // canon.GraphKey of the query
	k     int
	sigma float64
}

// memoEntry is one immutable answer to the read (k, radius) that stored it,
// by id for a threshold entry and closest first (ties by id) for kNN.
type memoEntry struct {
	ids    []int32
	dists  []float64
	mark   int32   // snapshot.maxID of the snapshot answered over
	cost   int     // verifications the full run behind the entry needed
	k      int     // kNN: the neighbours ranked; 0 for a threshold entry
	radius float64 // σ, or the radius a kNN entry searched
	next   *memoEntry
}

// owns reports whether e is key's own entry (for kNN, at radius ≥ key's).
func (e *memoEntry) owns(key memoKey) bool {
	return e.k == key.k && (e.radius == key.sigma || e.k > 0 && e.radius > key.sigma)
}

// size is what e and the entries linked after it account for.
func (k memoKey) size(e *memoEntry) (n int64) {
	for ; e != nil; e = e.next {
		n += int64(len(k.q)) + 12*int64(len(e.ids)) + memoEntryOverhead
	}
	return n
}

// The memo's two lists (see the file comment).
const probation, protected = 0, 1

// memoSlot is a resident query: its entries and its place on a list.
type memoSlot struct {
	e    *memoEntry
	at   *list.Element
	list int // probation or protected
}

// memo is a byte-bounded map of entries, safe for concurrent use. It
// evicts the query put least recently on probation first, then on
// protected, so which queries stay resident depends on the reads alone.
type memo struct {
	mu      sync.Mutex
	entries map[memoKey]memoSlot
	lists   [2]list.List // the keys on each list, least recently put first
	held    [2]int64     // the bytes each list's entries account for
	bytes   int64        // held[probation] + held[protected]
}

// get returns the first entry of k's query, moving the query to the
// back of protected if it waits on probation.
func (m *memo) get(k memoKey) *memoEntry {
	k = memoKey{q: k.q}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.entries[k]
	if s.e != nil && s.list == probation {
		m.unlink(k)
		m.link(k, s.e, protected)
	}
	return s.e
}

// unlink removes k's query.
func (m *memo) unlink(k memoKey) {
	if s, ok := m.entries[k]; ok {
		m.lists[s.list].Remove(s.at)
		m.held[s.list] -= k.size(s.e)
		m.bytes -= k.size(s.e)
		delete(m.entries, k)
	}
}

// link stores e as k's entries at the back of list l.
func (m *memo) link(k memoKey, e *memoEntry, l int) {
	if m.entries == nil {
		m.entries = make(map[memoKey]memoSlot)
	}
	m.entries[k] = memoSlot{e, m.lists[l].PushBack(k), l}
	m.held[l] += k.size(e)
	m.bytes += k.size(e)
}

// put links e in front of the entries of k's query within budget bytes,
// evicting to make room, and moves the query to the back of protected,
// or of probation if it was not resident. Among entries of e's k, e
// replaces each that is neither newer nor wider, and is dropped when one
// is at least as new and as wide and differs; an entry larger than the
// whole budget, or than probation's share when it would wait there, is
// not admitted.
func (m *memo) put(k memoKey, e *memoEntry, budget int64) {
	k = memoKey{q: k.q}
	if k.size(e) > budget {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	before, old := m.bytes, m.entries[k].e
	for o := old; o != nil; o = o.next {
		if o.k != e.k || o.mark > e.mark && o.radius < e.radius || o.mark < e.mark && o.radius > e.radius {
			c := *o // stored entries are immutable: relink a copy
			c.next, e.next = e.next, &c
		} else if o.mark > e.mark || o.radius > e.radius {
			return
		}
	}
	if k.size(e) > budget {
		e.next = nil
	}
	l, size := protected, k.size(e)
	if old == nil {
		if l = probation; size > budget/8 {
			return
		}
	}
	m.unlink(k)
	for m.bytes+size > budget || l == probation && m.held[probation]+size > budget/8 {
		from := probation
		if m.lists[probation].Len() == 0 {
			from = protected
		}
		m.unlink(m.lists[from].Front().Value.(memoKey))
		mMemoEvictions[from].Inc()
	}
	m.link(k, e, l)
	mMemoBytes.Add(float64(m.bytes - before))
}

// clear drops every entry.
func (m *memo) clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	mMemoBytes.Add(float64(-m.bytes))
	m.entries, m.lists, m.held, m.bytes = nil, [2]list.List{}, [2]int64{}, 0
}

// live reports whether the graph with global id is live in the snapshot.
func (sn *snapshot) live(id int32) bool {
	local, ok := localOf(sn.ids, sn.deltaIDs, id)
	return ok && !sn.view.Tombs.Has(local)
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

// read answers key from an entry of its query that covers it: the read's
// own, or one holding every graph within a threshold read's σ, or a
// threshold entry at σ′ that searched a kNN read's radius or holds its k
// answers within σ′. Of those it takes the one from the newest snapshot,
// the read's own on a tie (a hit; else covered), drops the answers no
// longer live and verifies the live graphs above the mark that the
// prescreen does not refute, at the budget of their turn: σ, or the k-th
// distance so far, a kNN newcomer taking its place by (distance, id). ok
// is false when no entry answers and the caller runs the full pipeline:
// a fallback when catching up would cost more than the entry's full run
// or the read's full kNN entry lost a neighbour, whose place only the
// full search can fill; else a miss. cands are the carried answers and
// the graphs verified.
func (sn *snapshot) read(ctx context.Context, q *graph.Graph, key memoKey) (ns []core.Neighbor, cands []int32, st core.Stats, ok bool) {
	var e *memoEntry
	outcome := mMemoMiss
	defer func() { outcome.Inc() }()
	for c := sn.memo.get(key); c != nil; c = c.next {
		covers := c.owns(key) || key.k == 0 && c.radius >= key.sigma && (c.k == 0 || len(c.ids) < c.k || c.dists[c.k-1] > key.sigma) ||
			key.k > 0 && c.k == 0 && (c.radius >= key.sigma || len(c.ids) >= key.k)
		if covers && c.mark <= sn.maxID && (e == nil || c.mark > e.mark || c.mark == e.mark && c.owns(key)) {
			e = c
		}
	}
	if e == nil {
		return nil, nil, st, false
	}
	fresh, fits := sn.newcomers(e)
	if !fits || e.owns(key) && len(e.ids) == e.k && slices.ContainsFunc(e.ids, func(id int32) bool { return !sn.live(id) }) {
		outcome = mMemoFallback
		return nil, nil, st, false
	}
	if outcome = mMemoCovered; e.owns(key) {
		outcome = mMemoHit
	}
	// ns holds at most keep answers, none farther than w.
	keep, w, start := cmp.Or(key.k, math.MaxInt), min(e.radius, key.sigma), time.Now()
	order := func(a, b core.Neighbor) int {
		if key.k == 0 {
			return cmp.Compare(a.ID, b.ID)
		}
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ID, b.ID))
	}
	ns = make([]core.Neighbor, 0, len(e.ids))
	for i, id := range e.ids {
		if e.dists[i] <= w && sn.live(id) {
			ns = append(ns, core.Neighbor{ID: id, Distance: e.dists[i]})
		}
	}
	slices.SortFunc(ns, order)
	ns = ns[:min(len(ns), keep)]
	cands = make([]int32, len(ns), len(ns)+len(fresh))
	for i, n := range ns {
		cands[i] = n.ID
	}
	var screen core.Screen
	nodes, err := sn.srch.VerifyEach(q, len(fresh), ctx.Done(), func(v *iso.Verifier, i int) {
		if i == 0 { // a read with no newcomers builds no screen
			screen = sn.srch.NewScreen(q, sn.view)
		}
		b := w
		if len(ns) == keep {
			b = ns[keep-1].Distance
		}
		if screen.Refutes(fresh[i], b, &st) {
			return
		}
		st.Verified++
		n := core.Neighbor{ID: sn.global(fresh[i]), Distance: v.Distance(sn.srch.Graph(sn.view, fresh[i]), b)}
		if cands = append(cands, n.ID); !distance.IsInfinite(n.Distance) {
			at, _ := slices.BinarySearchFunc(ns, n, order)
			ns = slices.Insert(ns, at, n)[:min(len(ns)+1, keep)]
		}
	})
	st.VerifyCacheHits, st.MemoHits, st.Refreshed, st.VerifyNodes, st.VerifyTime = len(cands)-st.Verified, 1, st.Verified, int(nodes), time.Since(start)
	mMemoRefreshed.Add(int64(st.Verified))
	if err != nil || ctx.Err() != nil || w < key.sigma && len(ns) < key.k {
		outcome = mMemoMiss // cut short, or the threshold entry held fewer than k answers
		return nil, nil, st, false
	}
	if !e.owns(key) || sn.maxID > e.mark || len(ns) != len(e.ids) {
		sn.memo.put(key, entryOf(key, ns, sn.maxID, e.cost), sn.budget)
	}
	return ns, cands, st, true
}

// entryOf is the answer ns to key's read as an entry.
func entryOf(key memoKey, ns []core.Neighbor, mark int32, cost int) *memoEntry {
	e := &memoEntry{ids: make([]int32, len(ns)), dists: make([]float64, len(ns)), mark: mark, cost: cost, k: key.k, radius: key.sigma}
	for i, n := range ns {
		e.ids[i], e.dists[i] = n.ID, n.Distance
	}
	return e
}

// search answers the threshold query over the snapshot, through the memo.
func (sn *snapshot) search(ctx context.Context, q *graph.Graph, sigma float64) (core.Result, error) {
	key := memoKey{q: canon.GraphKey(q), sigma: sigma}
	if ns, cands, st, ok := sn.read(ctx, q, key); ok {
		r := core.Result{Answers: make([]int32, len(ns)), Distances: make([]float64, len(ns)), Candidates: cands, Stats: st}
		for i, n := range ns {
			r.Answers[i], r.Distances[i] = n.ID, n.Distance
		}
		r.Stats.Publish()
		return r, nil
	}
	r, err := sn.srch.SearchViewCtx(ctx, q, sigma, sn.view)
	sn.remap(&r)
	if err == nil {
		sn.memo.put(key, &memoEntry{ids: slices.Clone(r.Answers), dists: slices.Clone(r.Distances), mark: sn.maxID, cost: r.Stats.Verified, radius: sigma}, sn.budget)
	}
	return r, err
}

// searchKNN answers the kNN query over the snapshot, through the memo.
func (sn *snapshot) searchKNN(ctx context.Context, q *graph.Graph, k int, maxSigma float64) ([]core.Neighbor, error) {
	if k <= 0 || maxSigma < 0 {
		return nil, nil
	}
	key := memoKey{q: canon.GraphKey(q), k: k, sigma: maxSigma}
	if ns, _, _, ok := sn.read(ctx, q, key); ok {
		return ns, nil
	}
	ns, verified, err := sn.srch.SearchKNNViewCtx(ctx, q, k, maxSigma, sn.view)
	for i := range ns {
		ns[i].ID = sn.global(ns[i].ID)
	}
	if err == nil {
		sn.memo.put(key, entryOf(key, ns, sn.maxID, verified), sn.budget)
	}
	return ns, err
}
