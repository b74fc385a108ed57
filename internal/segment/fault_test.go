// Disk-fault tests at the segment level: a WAL fsync failure must turn
// the segment's store read-only (mutations rejected, searches still
// exact) and a restart over the same directory must recover exactly the
// acknowledged mutations. The chaos test drives randomized workloads
// under seeded fault injection and checks the recovered live set
// against an in-memory model of the acknowledged state.

package segment_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pis/internal/distance"
	"pis/internal/faultfs"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
	"pis/internal/segment"
	"pis/internal/store"
)

func segGraph(rng *rand.Rand) *graph.Graph {
	n := 3 + rng.Intn(5)
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VLabel(rng.Intn(3)))
	}
	for v := int32(1); v < int32(n); v++ {
		b.AddEdge(rng.Int31n(v), v, graph.ELabel(rng.Intn(2)))
	}
	return b.MustBuild()
}

func segGraphs(n int, seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*graph.Graph, n)
	for i := range graphs {
		graphs[i] = segGraph(rng)
	}
	return graphs
}

// segConfig disables automatic compaction so tests control exactly when
// snapshots are written.
func segConfig(fs store.FS) segment.Config {
	return segment.Config{
		Index:           index.Options{Metric: distance.EdgeMutation{}},
		CompactFraction: -1,
		FS:              fs,
	}
}

// segFeatures mines the features a segment over graphs is built with.
func segFeatures(tb testing.TB, graphs []*graph.Graph) []mining.Feature {
	tb.Helper()
	feats, err := mining.Mine(graphs, mining.Options{MaxEdges: 3, MinEdges: 2, MinSupportFraction: 0.1, SampleSize: 16})
	if err != nil {
		tb.Fatal(err)
	}
	return feats
}

// newDurableSegment builds a segment over nBase graphs and persists it
// to dir through ffs.
func newDurableSegment(t *testing.T, dir string, ffs *faultfs.FS, nBase int) *segment.Segment {
	t.Helper()
	graphs := segGraphs(nBase, 1)
	seg, err := segment.New(graphs, 0, segFeatures(t, graphs), segConfig(ffs))
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.Persist(dir); err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestSegmentWALPoisoningReadOnly(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	seg := newDurableSegment(t, dir, ffs, 10)
	defer seg.Close()
	rng := rand.New(rand.NewSource(2))

	// Acknowledged mutations before the fault.
	if _, err := seg.Insert(segGraph(rng), 10); err != nil {
		t.Fatal(err)
	}
	if ok, err := seg.Delete(3); !ok || err != nil {
		t.Fatalf("delete 3: %v %v", ok, err)
	}
	q := seg.Graph(0)
	before := seg.SearchNaive(q, 1)

	// Every fsync from here on fails: the next mutation poisons the store.
	ffs.FailAfter(faultfs.OpSync, ffs.Count(faultfs.OpSync))
	if _, err := seg.Insert(segGraph(rng), 11); err == nil {
		t.Fatal("insert with failing fsync succeeded")
	} else if !errors.Is(err, store.ErrPoisoned) {
		t.Fatalf("insert error %v does not wrap ErrPoisoned", err)
	}
	// Sticky rejection, both mutation kinds.
	if _, err := seg.Insert(segGraph(rng), 12); !errors.Is(err, store.ErrPoisoned) {
		t.Fatalf("second insert = %v, want ErrPoisoned", err)
	}
	if _, err := seg.Delete(5); !errors.Is(err, store.ErrPoisoned) {
		t.Fatalf("delete after poisoning = %v, want ErrPoisoned", err)
	}
	if st := seg.Stats(); !st.Durable || !st.Store.Poisoned {
		t.Fatalf("store stats not poisoned: %+v", st)
	}

	// Reads are untouched: the rejected mutations never became visible
	// and searches answer exactly as before the fault.
	if seg.Live() != 10 {
		t.Fatalf("live = %d, want 10 (insert 10, delete 3, rejected 11/12)", seg.Live())
	}
	after := seg.SearchNaive(q, 1)
	if fmt.Sprint(after.Answers) != fmt.Sprint(before.Answers) {
		t.Fatalf("answers changed across poisoning: %v vs %v", before.Answers, after.Answers)
	}

	// Restart with a healthy filesystem: exactly the acked state.
	seg.Close()
	seg2, err := segment.OpenDurable(dir, segConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close()
	if seg2.Live() != 10 || seg2.Graph(3) != nil || seg2.Graph(10) == nil || seg2.Graph(11) != nil {
		t.Fatalf("recovered live=%d graph3=%v graph10=%v graph11=%v; want acked prefix only",
			seg2.Live(), seg2.Graph(3) != nil, seg2.Graph(10) != nil, seg2.Graph(11) != nil)
	}
	if _, err := seg2.Insert(segGraph(rng), seg2.Stats().MaxID+1); err != nil {
		t.Fatalf("recovered segment rejects mutations: %v", err)
	}
}

// TestSegmentChaosRecoversAckedState interleaves inserts, deletes,
// checkpoints, and searches under seeded random disk faults, tracking
// the acknowledged live set in a model map. After the dust settles the
// directory is reopened with a healthy filesystem and must hold exactly
// the modeled state.
func TestSegmentChaosRecoversAckedState(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(nil)
			const nBase = 10
			seg := newDurableSegment(t, dir, ffs, nBase)
			rng := rand.New(rand.NewSource(seed))
			ffs.Chaos(seed, 0.03)

			live := make(map[int32]bool)
			for i := int32(0); i < nBase; i++ {
				live[i] = true
			}
			next := int32(nBase)
			poisoned := false
			for i := 0; i < 150 && !poisoned; i++ {
				switch r := rng.Intn(10); {
				case r < 5: // insert
					_, err := seg.Insert(segGraph(rng), next)
					if err != nil {
						if !errors.Is(err, store.ErrPoisoned) {
							t.Fatalf("insert error: %v", err)
						}
						poisoned = true
						break
					}
					live[next] = true
					next++
				case r < 8: // delete a random id, live or not
					id := rng.Int31n(next)
					ok, err := seg.Delete(id)
					if err != nil {
						if !errors.Is(err, store.ErrPoisoned) {
							t.Fatalf("delete error: %v", err)
						}
						poisoned = true
						break
					}
					if ok != live[id] {
						t.Fatalf("delete %d reported %v, model says %v", id, ok, live[id])
					}
					delete(live, id)
				case r < 9: // checkpoint (may fail under chaos; state unchanged)
					if err := seg.Checkpoint(); err != nil && errors.Is(err, store.ErrPoisoned) {
						poisoned = true
					}
				default: // search: must keep answering whatever happens
					q := seg.Graph(0)
					if q == nil {
						for id := range live {
							q = seg.Graph(id)
							break
						}
					}
					if q != nil {
						seg.SearchNaive(q, 1)
					}
				}
			}
			// Once poisoned, everything else is rejected with the same error.
			if poisoned {
				if _, err := seg.Insert(segGraph(rng), next); !errors.Is(err, store.ErrPoisoned) {
					t.Fatalf("post-poison insert = %v, want ErrPoisoned", err)
				}
			}
			seg.Close()

			seg2, err := segment.OpenDurable(dir, segConfig(nil))
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer seg2.Close()
			got := seg2.AppendLiveIDs(nil)
			if len(got) != len(live) {
				t.Fatalf("recovered %d live graphs, model has %d (poisoned=%v)", len(got), len(live), poisoned)
			}
			for _, id := range got {
				if !live[id] {
					t.Fatalf("recovered ghost graph %d (poisoned=%v)", id, poisoned)
				}
			}
		})
	}
}
