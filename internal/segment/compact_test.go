// Compaction by merge, through the segment's own surface: a run of
// insert-triggered compactions — most of them merges, one in the middle the
// re-mine the doubling rule asks for — under concurrent readers, with a
// fresh pis.New over the survivors as the oracle after every one.

package segment_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"pis"
	"pis/internal/graph"
	"pis/internal/obs"
	"pis/internal/segment"
)

// compactCounts reads the process-wide compaction counters; tests compare
// deltas.
type compactCounts struct{ compactions, remines, carried, enumerated int64 }

func readCompactCounts() compactCounts {
	c := func(name string) int64 { return obs.Default().Counter(name, "").Value() }
	return compactCounts{
		c("pis_compactions_total"), c("pis_compaction_remines_total"),
		c("pis_compaction_carried_graphs_total"), c("pis_compaction_enumerated_graphs_total"),
	}
}

// sameAsFresh compares every read of queries through seg with a database
// built from scratch over seg's live graphs. A fresh database numbers the
// survivors 0, 1, ... in id order, so a global id answers as its rank. It
// returns how many answers it compared.
func sameAsFresh(t *testing.T, what string, seg *segment.Segment, live map[int32]*graph.Graph, queries []*graph.Graph) (answers int) {
	t.Helper()
	ids := seg.AppendLiveIDs(nil)
	if len(ids) != len(live) {
		t.Fatalf("%s: %d live ids, the model holds %d", what, len(ids), len(live))
	}
	survivors := make([]*graph.Graph, len(ids))
	for i, id := range ids {
		if survivors[i] = live[id]; survivors[i] == nil {
			t.Fatalf("%s: id %d is live but was deleted", what, id)
		}
	}
	fresh, err := pis.New(survivors, pis.Options{MaxFragmentEdges: 3, MinSupportFraction: 0.1})
	if err != nil {
		t.Fatalf("%s: fresh build: %v", what, err)
	}
	rank := func(id int32) int32 {
		i, ok := slices.BinarySearch(ids, id)
		if !ok {
			t.Fatalf("%s: answer id %d is not live", what, id)
		}
		return int32(i)
	}
	for qi, q := range queries {
		for _, sigma := range []float64{0, 1, 2} {
			got, want := search(seg, q, sigma), fresh.Search(q, sigma)
			for i := range got.Answers {
				got.Answers[i] = rank(got.Answers[i])
			}
			if !slices.Equal(got.Answers, want.Answers) || !slices.Equal(got.Distances, want.Distances) {
				t.Fatalf("%s: q%d σ=%g answers %v %v, a fresh database says %v %v",
					what, qi, sigma, got.Answers, got.Distances, want.Answers, want.Distances)
			}
			answers += len(got.Answers)
		}
		got, want := searchKNN(seg, q, 4, 0, 3), fresh.SearchKNN(q, 4, 3)
		for i := range got {
			got[i].ID = rank(got[i].ID)
		}
		if !sameNeighbors(got, want) {
			t.Fatalf("%s: q%d kNN %v, a fresh database says %v", what, qi, got, want)
		}
	}
	return answers
}

func TestMergedCompactionsDifferential(t *testing.T) {
	const nBase, wantCompactions = 20, 7
	for _, tc := range []struct {
		name            string
		mapped, durable bool
	}{
		{"heap", false, false},
		{"mapped durable", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := segConfig(nil)
			cfg.CompactFraction = 0.25
			cfg.MappedIndex = tc.mapped
			graphs := segGraphs(400, 23)
			seg, err := segment.New(graphs[:nBase], 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if tc.durable {
				if err := seg.Persist(dir); err != nil {
					t.Fatal(err)
				}
			}
			live := make(map[int32]*graph.Graph)
			for i, g := range graphs[:nBase] {
				live[int32(i)] = g
			}
			// Queries from the first base and from graphs only ever inserted.
			queries := []*graph.Graph{graphs[1], graphs[5], graphs[12], graphs[nBase+3], graphs[nBase+40], graphs[399]}

			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 3; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					for i := r; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						q := queries[i%len(queries)]
						if i%2 == 0 {
							res := search(seg, q, 1)
							if !slices.IsSorted(res.Answers) || len(res.Answers) != len(res.Distances) {
								t.Errorf("torn result: %v %v", res.Answers, res.Distances)
							}
						} else {
							searchKNN(seg, q, 3, 0, 3)
						}
					}
				}(r)
			}

			rng := rand.New(rand.NewSource(29))
			c0 := readCompactCounts()
			var remined []bool // per compaction, in order
			answers := 0
			for next := int32(nBase); len(remined) < wantCompactions; next++ {
				if int(next) == len(graphs) {
					t.Fatalf("ran out of graphs after %d compactions", len(remined))
				}
				needsCompact, err := seg.Insert(graphs[next], next)
				if err != nil {
					t.Fatal(err)
				}
				live[next] = graphs[next]
				if next%5 == 0 { // tombstones in the base and in the delta alike
					victim := rng.Int31n(next + 1)
					ok, err := seg.Delete(victim)
					if err != nil || ok != (live[victim] != nil) {
						t.Fatalf("Delete(%d): %v, %v", victim, ok, err)
					}
					delete(live, victim)
				}
				if !needsCompact {
					continue
				}
				before := readCompactCounts()
				if err := seg.Compact(); err != nil {
					t.Fatal(err)
				}
				remined = append(remined, readCompactCounts().remines > before.remines)
				if seg.DeltaLen() != 0 || seg.Tombstoned() != 0 {
					t.Fatalf("compaction %d left delta %d, tombstones %d", len(remined), seg.DeltaLen(), seg.Tombstoned())
				}
				answers += sameAsFresh(t, fmt.Sprintf("after compaction %d (remined %v)", len(remined), remined), seg, live, queries)
			}
			close(stop)
			readers.Wait()

			got := readCompactCounts()
			if n := got.compactions - c0.compactions; n != wantCompactions {
				t.Fatalf("%d compactions counted, ran %d", n, wantCompactions)
			}
			first, last := slices.Index(remined, true), len(remined)-1
			if first <= 0 || first == last || remined[last] {
				t.Fatalf("re-mines at %v: want the doubling rule to fire in the middle of the run, merges either side", remined)
			}
			if got.carried == c0.carried || got.enumerated == c0.enumerated {
				t.Fatalf("compaction counters did not move: %+v then %+v", c0, got)
			}
			if answers < 10*wantCompactions {
				t.Fatalf("only %d answers compared over %d compactions", answers, wantCompactions)
			}
			t.Logf("re-mines at %v, %d answers compared", remined, answers)

			if tc.durable {
				if err := seg.Close(); err != nil {
					t.Fatal(err)
				}
				if side, err := filepath.Glob(filepath.Join(dir, "idx-*.pisidx3")); err != nil || len(side) != 1 {
					t.Fatalf("store holds index side files %v (err %v), want the last compaction's", side, err)
				}
				// The last compaction was a merge and its snapshot the last
				// write: the reopened segment maps that merged image.
				seg, err = segment.OpenDurable(dir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if st, _ := seg.StoreStats(); st.Recovery.ReplayedRecords != 0 {
					t.Fatalf("reopen replayed %d WAL records, want a bare snapshot", st.Recovery.ReplayedRecords)
				}
				sameAsFresh(t, "reopened", seg, live, queries)
			}
			if err := seg.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
