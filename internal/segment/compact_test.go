// Compaction by merge, through the segment's own surface: a run of
// insert-triggered compactions, every one of them a merge under the
// features the segment was built with, under concurrent readers, with a
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
type compactCounts struct{ compactions, carried, enumerated int64 }

func readCompactCounts() compactCounts {
	c := func(name string) int64 { return obs.Default().Counter(name, "").Value() }
	return compactCounts{
		c("pis_compactions_total"),
		c("pis_compaction_carried_graphs_total"), c("pis_compaction_enumerated_graphs_total"),
	}
}

// triangleFan returns a fan of triangles around vertex 0: a skeleton the
// trees of segGraph never contain.
func triangleFan(rng *rand.Rand) *graph.Graph {
	n := 4 + rng.Intn(4)
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VLabel(rng.Intn(3)))
	}
	for v := int32(1); v < int32(n); v++ {
		b.AddEdge(0, v, graph.ELabel(rng.Intn(2)))
		if v > 1 {
			b.AddEdge(v-1, v, graph.ELabel(rng.Intn(2)))
		}
	}
	return b.MustBuild()
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
	fresh, err := pis.New(survivors, pis.Options{MaxFragmentEdges: 3})
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
		got, want := searchKNN(seg, q, 4, 3), fresh.SearchKNN(q, 4, 3)
		for i := range got {
			got[i].ID = rank(got[i].ID)
		}
		if !sameNeighbors(got, want) {
			t.Fatalf("%s: q%d kNN %v, a fresh database says %v", what, qi, got, want)
		}
	}
	return answers
}

// TestMergedCompactionsDifferential grows a segment of trees past twice
// its size with triangle fans, so features mined anew over the survivors
// would differ, and checks that every compaction merges and keeps the
// features the segment was built with.
func TestMergedCompactionsDifferential(t *testing.T) {
	const nBase, wantCompactions = 20, 7
	for _, tc := range []struct {
		name    string
		durable bool
	}{
		{"heap", false},
		{"durable", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := segConfig(nil)
			cfg.CompactFraction = 0.25
			graphs := segGraphs(nBase, 23)
			rng := rand.New(rand.NewSource(23))
			for len(graphs) < 400 {
				graphs = append(graphs, triangleFan(rng))
			}
			seg, err := segment.New(graphs[:nBase], 0, segFeatures(t, graphs[:nBase]), cfg)
			if err != nil {
				t.Fatal(err)
			}
			classes := segment.ClassKeys(seg)
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
							searchKNN(seg, q, 3, 3)
						}
					}
				}(r)
			}

			rng = rand.New(rand.NewSource(29))
			c0 := readCompactCounts()
			compactions, answers := 0, 0
			deltaStart := int32(nBase) // ids at or above it are in the delta
			for next := int32(nBase); compactions < wantCompactions; next++ {
				if int(next) == len(graphs) {
					t.Fatalf("ran out of graphs after %d compactions", compactions)
				}
				needsCompact, err := seg.Insert(graphs[next], next)
				if err != nil {
					t.Fatal(err)
				}
				live[next] = graphs[next]
				if next%5 == 0 {
					// Tombstones in the base and in the delta alike, and as
					// many again among the first trees, so fans reach the
					// prefix a mining sample of the survivors would take.
					for _, victim := range []int32{rng.Int31n(next + 1), rng.Int31n(nBase)} {
						ok, err := seg.Delete(victim)
						if err != nil || ok != (live[victim] != nil) {
							t.Fatalf("Delete(%d): %v, %v", victim, ok, err)
						}
						delete(live, victim)
					}
				}
				if !needsCompact {
					continue
				}
				var wantCarried, wantEnumerated int64
				for id := range live {
					if id < deltaStart {
						wantCarried++
					} else {
						wantEnumerated++
					}
				}
				before := readCompactCounts()
				if err := seg.Compact(); err != nil {
					t.Fatal(err)
				}
				compactions++
				deltaStart = next + 1
				after := readCompactCounts()
				if carried, enumerated := after.carried-before.carried, after.enumerated-before.enumerated; carried != wantCarried || enumerated != wantEnumerated {
					t.Fatalf("compaction %d carried %d and enumerated %d graphs, a merge carries %d and enumerates %d",
						compactions, carried, enumerated, wantCarried, wantEnumerated)
				}
				if got := segment.ClassKeys(seg); !slices.Equal(got, classes) {
					t.Fatalf("compaction %d (%d survivors) changed the class list: %d classes at New, %d now", compactions, len(live), len(classes), len(got))
				}
				if st := seg.Stats(); st.Delta != 0 || st.Tombstones != 0 {
					t.Fatalf("compaction %d left delta %d, tombstones %d", compactions, st.Delta, st.Tombstones)
				}
				answers += sameAsFresh(t, fmt.Sprintf("after compaction %d", compactions), seg, live, queries)
			}
			close(stop)
			readers.Wait()

			if n := readCompactCounts().compactions - c0.compactions; n != wantCompactions {
				t.Fatalf("%d compactions counted, ran %d", n, wantCompactions)
			}
			if len(live) <= 2*nBase {
				t.Fatalf("the segment grew to %d graphs, want more than twice its first %d", len(live), nBase)
			}
			if answers < 10*wantCompactions {
				t.Fatalf("only %d answers compared over %d compactions", answers, wantCompactions)
			}
			t.Logf("%d survivors, %d answers compared", len(live), answers)

			if tc.durable {
				if err := seg.Close(); err != nil {
					t.Fatal(err)
				}
				if side, err := filepath.Glob(filepath.Join(dir, "idx-*.pisidx3")); err != nil || len(side) != 1 {
					t.Fatalf("store holds index side files %v (err %v), want the last compaction's", side, err)
				}
				// The last compaction's snapshot was the last write: the
				// reopened segment maps that merged image.
				seg, err = segment.OpenDurable(dir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if st := seg.Stats().Store; st.Recovery.ReplayedRecords != 0 {
					t.Fatalf("reopen replayed %d WAL records, want a bare snapshot", st.Recovery.ReplayedRecords)
				}
				if got := segment.ClassKeys(seg); !slices.Equal(got, classes) {
					t.Fatalf("reopened with %d classes, not the %d built at New", len(got), len(classes))
				}
				sameAsFresh(t, "reopened", seg, live, queries)
			}
			if err := seg.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
