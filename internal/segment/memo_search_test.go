// Behaviour of the result memo through the segment's read paths. The
// reference for every answer is SearchNaive over the same segment, which
// verifies every live graph and never touches the memo.

package segment_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"pis/internal/core"
	"pis/internal/faultfs"
	"pis/internal/graph"
	"pis/internal/obs"
	"pis/internal/segment"
)

// memoCounts reads the process-wide lookup counters; tests compare deltas.
type memoCounts struct{ hit, miss, fallback, covered int64 }

func readMemoCounts() memoCounts {
	v := obs.Default().CounterVec("pis_result_memo_lookups_total", "", "outcome")
	return memoCounts{v.Value("hit"), v.Value("miss"), v.Value("fallback"), v.Value("covered")}
}

func (c memoCounts) since(old memoCounts) memoCounts {
	return memoCounts{c.hit - old.hit, c.miss - old.miss, c.fallback - old.fallback, c.covered - old.covered}
}

// search and searchKNN are the segment's reads under a background
// context, where the only possible error is a verification panic.
func search(seg *segment.Segment, q *graph.Graph, sigma float64) core.Result {
	r, err := seg.SearchCtx(context.Background(), q, sigma)
	core.Rethrow(err)
	return r
}

func searchKNN(seg *segment.Segment, q *graph.Graph, k int, maxSigma float64) []core.Neighbor {
	ns, err := seg.SearchKNNCtx(context.Background(), q, k, maxSigma)
	core.Rethrow(err)
	return ns
}

func newMemoSegment(t *testing.T, n int) (*segment.Segment, []*graph.Graph) {
	t.Helper()
	graphs := segGraphs(n, 11)
	seg, err := segment.New(graphs, 0, segFeatures(t, graphs), segConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	return seg, graphs
}

// sameAsNaive compares a memo-path result with the naive reference.
func sameAsNaive(t *testing.T, what string, seg *segment.Segment, q *graph.Graph, sigma float64, got core.Result) {
	t.Helper()
	want := seg.SearchNaive(q, sigma)
	if !slices.Equal(got.Answers, want.Answers) || !slices.Equal(got.Distances, want.Distances) {
		t.Fatalf("%s: answers %v %v, naive says %v %v", what, got.Answers, got.Distances, want.Answers, want.Distances)
	}
	if st := got.Stats; len(got.Candidates) != st.VerifyCacheHits+st.Verified {
		t.Fatalf("%s: %d candidates, but %d carried over + %d verified", what, len(got.Candidates), st.VerifyCacheHits, st.Verified)
	}
}

// naiveKNN is the reference kNN: every live graph within radius, closest
// first, ties by id, cut at k.
func naiveKNN(seg *segment.Segment, q *graph.Graph, k int, radius float64) []core.Neighbor {
	r := seg.SearchNaive(q, radius)
	ns := make([]core.Neighbor, len(r.Answers))
	for i, id := range r.Answers {
		ns[i] = core.Neighbor{ID: id, Distance: r.Distances[i]}
	}
	sort.SliceStable(ns, func(i, j int) bool { return ns[i].Distance < ns[j].Distance })
	return ns[:min(k, len(ns))]
}

func sameNeighbors(a, b []core.Neighbor) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestMemoRepeatQuery walks one query through the life of its entry: a
// cold miss, a pure hit, a hit that verifies one inserted graph, a hit
// that drops a deleted answer, and a hit after compaction renumbered
// every local id. The baseline, SearchNaive (sameAsNaive runs it), never
// looks the memo up.
func TestMemoRepeatQuery(t *testing.T) {
	seg, graphs := newMemoSegment(t, 40)
	defer seg.Close()
	q, sigma := graphs[3], 1.0

	c0 := readMemoCounts()
	first := search(seg, q, sigma)
	sameAsNaive(t, "cold", seg, q, sigma, first)
	if got := readMemoCounts().since(c0); got != (memoCounts{miss: 1}) || first.Stats.MemoHits != 0 {
		t.Fatalf("cold search + baseline: lookups %+v, MemoHits %d; want one miss", got, first.Stats.MemoHits)
	}
	if len(first.Answers) == 0 {
		t.Fatal("the query has no answers; the test needs some to carry over")
	}

	second := search(seg, q, sigma)
	sameAsNaive(t, "repeat", seg, q, sigma, second)
	if st := second.Stats; st.MemoHits != 1 || st.Verified != 0 || st.VerifyCacheHits != len(first.Answers) || st.StructCandidates != 0 {
		t.Fatalf("repeat search was not a pure memo hit: %+v", st)
	}

	if _, err := seg.Insert(q, 40); err != nil { // the query itself: distance 0
		t.Fatal(err)
	}
	tctx, tr := obs.WithTrace(context.Background())
	third, err := seg.SearchCtx(tctx, q, sigma)
	if err != nil {
		t.Fatal(err)
	}
	sp := tr.Root()
	sameAsNaive(t, "after insert", seg, q, sigma, third)
	if st := third.Stats; st.MemoHits != 1 || st.Refreshed != 1 || st.Verified != 1 || !slices.Contains(third.Answers, 40) {
		t.Fatalf("after one insert the hit should verify exactly that graph and answer it: %+v %v", st, third.Answers)
	}
	if sp.Attrs["memo_hit"] != true || sp.Attrs["refreshed"] != 1 {
		t.Fatalf("search span attributes %v, want memo_hit=true refreshed=1", sp.Attrs)
	}

	if ok, err := seg.Delete(first.Answers[0]); !ok || err != nil {
		t.Fatal(ok, err)
	}
	fourth, err := seg.SearchCtx(context.Background(), q, sigma)
	if err != nil {
		t.Fatal(err)
	}
	sameAsNaive(t, "after delete", seg, q, sigma, fourth)
	if fourth.Stats.MemoHits != 1 || fourth.Stats.Verified != 0 || slices.Contains(fourth.Answers, first.Answers[0]) {
		t.Fatalf("after a delete the hit should drop the answer without verifying: %+v %v", fourth.Stats, fourth.Answers)
	}

	if err := seg.Compact(); err != nil {
		t.Fatal(err)
	}
	fifth := search(seg, q, sigma)
	sameAsNaive(t, "after compaction", seg, q, sigma, fifth)
	if fifth.Stats.MemoHits != 1 || fifth.Stats.Verified != 0 {
		t.Fatalf("the entry did not survive compaction: %+v", fifth.Stats)
	}
	if got := readMemoCounts().since(c0); got != (memoCounts{hit: 4, miss: 1}) {
		t.Fatalf("lookups over the whole walk %+v, want 4 hits and 1 miss", got)
	}
}

// TestMemoFallback: once the live graphs inserted since the entry
// outnumber the verifications its full run needed, the read runs the full
// pipeline again, and the entry it stores is good for hits afterwards.
func TestMemoFallback(t *testing.T) {
	seg, graphs := newMemoSegment(t, 40)
	defer seg.Close()
	q, sigma := graphs[5], 1.0
	cost := search(seg, q, sigma).Stats.Verified
	rng := rand.New(rand.NewSource(5))
	for i := 0; i <= cost; i++ {
		if _, err := seg.Insert(segGraph(rng), int32(40+i)); err != nil {
			t.Fatal(err)
		}
	}
	c0 := readMemoCounts()
	r := search(seg, q, sigma)
	sameAsNaive(t, "fallback", seg, q, sigma, r)
	if got := readMemoCounts().since(c0); got != (memoCounts{fallback: 1}) || r.Stats.MemoHits != 0 {
		t.Fatalf("%d inserts against an entry that cost %d: lookups %+v, MemoHits %d; want one fallback", cost+1, cost, got, r.Stats.MemoHits)
	}
	if r = search(seg, q, sigma); r.Stats.MemoHits != 1 || r.Stats.Verified != 0 {
		t.Fatalf("the fallback's result was not stored: %+v", r.Stats)
	}
}

// TestMemoCanceledStoresNothing: a hit whose catch-up the context cuts
// short reports the cancellation like any search and leaves the entry as
// it was, so the next read still verifies the insert the canceled one saw.
func TestMemoCanceledStoresNothing(t *testing.T) {
	seg, graphs := newMemoSegment(t, 40)
	defer seg.Close()
	q, sigma := graphs[3], 1.0
	search(seg, q, sigma)
	if _, err := seg.Insert(q, 40); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := seg.SearchCtx(ctx, q, sigma)
	if !errors.Is(err, context.Canceled) || !r.Stats.Partial {
		t.Fatalf("canceled search: err %v, partial %v", err, r.Stats.Partial)
	}
	if _, err := seg.SearchKNNCtx(ctx, q, 3, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled kNN: err %v", err)
	}
	r = search(seg, q, sigma)
	sameAsNaive(t, "after a canceled read", seg, q, sigma, r)
	if r.Stats.MemoHits != 1 || r.Stats.Refreshed != 1 {
		t.Fatalf("the read after a canceled one should hit the old entry and verify the insert: %+v", r.Stats)
	}
}

// TestMemoKNN pins the kNN rules: a smaller radius is answered by prefix,
// a larger one is a miss, an inserted graph takes its place by (distance,
// id), and a deleted neighbour forces the full search.
func TestMemoKNN(t *testing.T) {
	seg, _ := newMemoSegment(t, 40)
	defer seg.Close()
	// A two-edge path embeds in most graphs, so the k slots are contested;
	// no stored graph has an edge labelled 2, so none is at distance 0.
	b := graph.NewBuilder(3, 2)
	b.AddVertex(0)
	b.AddVertex(1)
	b.AddVertex(2)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 0)
	q, k := b.MustBuild(), 4
	check := func(what string, radius float64, want memoCounts) []core.Neighbor {
		t.Helper()
		c0 := readMemoCounts()
		got := searchKNN(seg, q, k, radius)
		if ref := naiveKNN(seg, q, k, radius); !sameNeighbors(got, ref) {
			t.Fatalf("%s: kNN %v, naive says %v", what, got, ref)
		}
		if d := readMemoCounts().since(c0); d != want {
			t.Fatalf("%s: lookups %+v, want %+v", what, d, want)
		}
		return got
	}
	check("cold", 3, memoCounts{miss: 1})
	check("repeat", 3, memoCounts{hit: 1})
	check("smaller radius", 1, memoCounts{hit: 1})
	check("radius 0", 0, memoCounts{hit: 1})
	check("larger radius", 5, memoCounts{miss: 1})
	ns := check("repeat at the larger radius", 5, memoCounts{hit: 1})
	if len(ns) < 2 {
		t.Fatalf("only %d neighbours; the test needs a few", len(ns))
	}

	if _, err := seg.Insert(q, 40); err != nil {
		t.Fatal(err)
	}
	if got := check("after insert", 5, memoCounts{hit: 1}); got[0] != (core.Neighbor{ID: 40}) {
		t.Fatalf("the inserted copy of the query is not its nearest neighbour: %v", got)
	}
	if ok, err := seg.Delete(ns[1].ID); !ok || err != nil {
		t.Fatal(ok, err)
	}
	check("after deleting a neighbour", 5, memoCounts{fallback: 1})
	if err := seg.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after compaction", 5, memoCounts{hit: 1})
	if got := searchKNN(seg, q, 0, 5); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

// TestMemoKNNShortEntrySurvivesDelete: an entry holding fewer than k
// neighbours holds every graph within its radius, so deleting one of them
// is a hit that drops it, at every radius up to the entry's, where a full
// entry would have to run the search again.
func TestMemoKNNShortEntrySurvivesDelete(t *testing.T) {
	seg, _ := newMemoSegment(t, 40)
	defer seg.Close()
	// TestMemoKNN's two-edge path: at distance 1 or more from most graphs.
	b := graph.NewBuilder(3, 2)
	b.AddVertex(0)
	b.AddVertex(1)
	b.AddVertex(2)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 0)
	q, k, radius := b.MustBuild(), 60, 1.0
	cold := searchKNN(seg, q, k, radius)
	if len(cold) < 3 || len(cold) >= k {
		t.Fatalf("%d neighbours within %v; the test needs a few, fewer than k=%d", len(cold), radius, k)
	}
	for _, victim := range []int32{cold[0].ID, cold[len(cold)-1].ID} {
		if ok, err := seg.Delete(victim); !ok || err != nil {
			t.Fatal(ok, err)
		}
		for _, r := range []float64{radius, 1, 0} {
			c0 := readMemoCounts()
			got := searchKNN(seg, q, k, r)
			if ref := naiveKNN(seg, q, k, r); !sameNeighbors(got, ref) {
				t.Fatalf("after deleting %d, radius %v: kNN %v, naive says %v", victim, r, got, ref)
			}
			if d := readMemoCounts().since(c0); d != (memoCounts{hit: 1}) {
				t.Fatalf("after deleting %d, radius %v: lookups %+v, want one hit", victim, r, d)
			}
		}
	}
}

// TestMemoStartsCold: the memo belongs to the Segment value. A segment
// recovered from its store answers its first read cold.
func TestMemoStartsCold(t *testing.T) {
	dir := t.TempDir()
	seg := newDurableSegment(t, dir, faultfs.New(nil), 30)
	q := segGraphs(30, 1)[2]
	search(seg, q, 1)
	if r := search(seg, q, 1); r.Stats.MemoHits != 1 {
		t.Fatalf("warm-up did not warm: %+v", r.Stats)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := segment.OpenDurable(dir, segConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	c0 := readMemoCounts()
	if r := search(reopened, q, 1); r.Stats.MemoHits != 0 {
		t.Fatalf("a recovered segment answered its first read from a memo: %+v", r.Stats)
	}
	if got := readMemoCounts().since(c0); got != (memoCounts{miss: 1}) {
		t.Fatalf("first read of a recovered segment: lookups %+v, want one miss", got)
	}
}

// TestMemoCovers pins the rules by which one read of a query is answered
// from an entry another read of it stored, and the reads that must run the
// full pipeline instead. Every answer is checked against the naive
// reference and every read against the one lookup outcome it counts.
func TestMemoCovers(t *testing.T) {
	covered, miss := memoCounts{covered: 1}, memoCounts{miss: 1}
	// read runs one read on seg and checks its answer and outcome; k = 0 is
	// a threshold read at sigma, k > 0 a kNN read within radius sigma.
	read := func(t *testing.T, seg *segment.Segment, q *graph.Graph, k int, sigma float64, want memoCounts) (core.Result, []core.Neighbor) {
		t.Helper()
		c0 := readMemoCounts()
		var r core.Result
		var ns []core.Neighbor
		if k == 0 {
			r = search(seg, q, sigma)
			sameAsNaive(t, fmt.Sprintf("σ=%g", sigma), seg, q, sigma, r)
			if (r.Stats.MemoHits == 1) != (want.hit+want.covered == 1) {
				t.Fatalf("σ=%g: MemoHits %d, want the memo to answer: %v", sigma, r.Stats.MemoHits, want.hit+want.covered == 1)
			}
		} else if ns = searchKNN(seg, q, k, sigma); !sameNeighbors(ns, naiveKNN(seg, q, k, sigma)) {
			t.Fatalf("k=%d R=%g: kNN %v, naive says %v", k, sigma, ns, naiveKNN(seg, q, k, sigma))
		}
		if got := readMemoCounts().since(c0); got != want {
			t.Fatalf("k=%d σ=%g: lookups %+v, want %+v", k, sigma, got, want)
		}
		return r, ns
	}
	// Each case starts from a segment whose memo holds one threshold entry
	// of q at σ′ = 2.
	fresh := func(t *testing.T) (*segment.Segment, *graph.Graph, core.Result) {
		seg, graphs := newMemoSegment(t, 40)
		t.Cleanup(func() { seg.Close() })
		q := graphs[18] // distances 0, 1, 1, 1, 2, 2, then 3 and beyond
		r, _ := read(t, seg, q, 0, 2, miss)
		if within1 := sort.SearchFloat64s(slices.Sorted(slices.Values(r.Distances)), 1.5); within1 < 2 || within1 == len(r.Answers) {
			t.Fatalf("%d answers within 2, %d of them within 1; the cases need a few of each and some beyond 1", len(r.Answers), within1)
		}
		return seg, q, r
	}

	t.Run("threshold from a wider threshold entry", func(t *testing.T) {
		seg, q, _ := fresh(t)
		read(t, seg, q, 0, 1, covered)
		read(t, seg, q, 0, 0, covered)
		read(t, seg, q, 0, 2, memoCounts{hit: 1})
		read(t, seg, q, 0, 2.5, miss)
	})
	t.Run("kNN from a threshold entry holding k answers", func(t *testing.T) {
		seg, q, r := fresh(t)
		read(t, seg, q, len(r.Answers), 4, covered)
		read(t, seg, q, 1, 6, covered)
	})
	t.Run("kNN from a threshold entry that searched its radius", func(t *testing.T) {
		seg, q, r := fresh(t)
		if _, ns := read(t, seg, q, len(r.Answers)+5, 1.5, covered); len(ns) >= len(r.Answers) {
			t.Fatalf("%d neighbours within 1.5 of %d answers within 2", len(ns), len(r.Answers))
		}
	})
	t.Run("kNN short of k within a narrower threshold entry", func(t *testing.T) {
		seg, q, r := fresh(t)
		read(t, seg, q, len(r.Answers)+1, 4, miss)
		// A newcomer might make up the k-th answer, so it is caught up
		// first; a one-vertex graph, where q has no superposition, does not.
		seg, q, r = fresh(t)
		b := graph.NewBuilder(1, 0)
		b.AddVertex(0)
		if _, err := seg.Insert(b.MustBuild(), 40); err != nil {
			t.Fatal(err)
		}
		read(t, seg, q, len(r.Answers)+1, 4, miss)
		// An entry that held k answers before a delete holds k-1 after it.
		seg, q, r = fresh(t)
		if ok, err := seg.Delete(r.Answers[0]); !ok || err != nil {
			t.Fatal(ok, err)
		}
		read(t, seg, q, len(r.Answers), 4, miss)
	})
	t.Run("threshold from kNN entries", func(t *testing.T) {
		seg, q, r := fresh(t)
		// A full kNN entry holds every graph below its k-th distance only.
		_, ns := read(t, seg, q, len(r.Answers), 4, covered)
		dk := ns[len(ns)-1].Distance
		seg2, _ := newMemoSegment(t, 40)
		defer seg2.Close()
		read(t, seg2, q, len(r.Answers), 4, miss)
		read(t, seg2, q, 0, dk/2, covered)
		read(t, seg2, q, 0, dk, miss)
		// A kNN entry short of k holds every graph within its radius.
		seg3, _ := newMemoSegment(t, 40)
		defer seg3.Close()
		read(t, seg3, q, 1000, 1.5, miss)
		read(t, seg3, q, 0, 1.5, covered)
		read(t, seg3, q, 0, 1, covered)
		read(t, seg3, q, 0, 2, miss)
	})
	t.Run("deleted answers drop out", func(t *testing.T) {
		seg, q, r := fresh(t)
		victim := r.Answers[slices.Index(r.Distances, 0)]
		if ok, err := seg.Delete(victim); !ok || err != nil {
			t.Fatal(ok, err)
		}
		got, _ := read(t, seg, q, 0, 1, covered)
		if slices.Contains(got.Answers, victim) || got.Stats.Verified != 0 {
			t.Fatalf("after deleting %d: answers %v, %d verified", victim, got.Answers, got.Stats.Verified)
		}
		read(t, seg, q, 2, 6, covered)
	})
	t.Run("newcomers are caught up", func(t *testing.T) {
		seg, q, _ := fresh(t)
		if _, err := seg.Insert(q, 40); err != nil { // the query itself: distance 0
			t.Fatal(err)
		}
		got, _ := read(t, seg, q, 0, 1, covered)
		if st := got.Stats; st.Refreshed != 1 || !slices.Contains(got.Answers, 40) {
			t.Fatalf("the covered read should verify the inserted graph and answer it: %+v %v", st, got.Answers)
		}
		if _, ns := read(t, seg, q, 2, 6, covered); !slices.Contains(ns, core.Neighbor{ID: 40}) {
			t.Fatalf("kNN after the insert misses the inserted copy of the query: %v", ns)
		}
	})
	t.Run("too many newcomers fall back", func(t *testing.T) {
		seg, q, r := fresh(t)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i <= r.Stats.Verified; i++ {
			if _, err := seg.Insert(segGraph(rng), int32(40+i)); err != nil {
				t.Fatal(err)
			}
		}
		read(t, seg, q, 0, 1, memoCounts{fallback: 1})
		read(t, seg, q, 2, 6, memoCounts{covered: 1}) // the fallback stored a fresh entry at σ=1
	})
}
