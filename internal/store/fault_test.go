// Disk-fault tests: every WAL append/fsync or snapshot-write failure
// must poison the store — sticky rejection of further mutations, reads
// untouched — and a later recovery over the same directory with a
// healthy filesystem must land on exactly the acknowledged prefix.
//
// External test package: faultfs imports store for the FS interface, so
// an in-package test importing faultfs would be an import cycle.

package store_test

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
	"pis/internal/store"
)

// faultState builds a tiny indexed graph set for snapshot payloads
// (mirrors the in-package test helpers).
func faultState(t *testing.T, n int, seed int64) ([]*graph.Graph, *index.Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*graph.Graph, n)
	for i := range graphs {
		graphs[i] = tinyGraph(rng)
	}
	feats, err := mining.Mine(graphs, mining.Options{MaxEdges: 3, MinEdges: 2, MinSupportFraction: 0.1, SampleSize: n})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(graphs, feats, index.Options{Metric: distance.EdgeMutation{}})
	if err != nil {
		t.Fatal(err)
	}
	return graphs, idx
}

func tinyGraph(rng *rand.Rand) *graph.Graph {
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

func idRange(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// newFaultStore creates a store over ffs whose initial snapshot holds
// nBase graphs with ids 0..nBase-1.
func newFaultStore(t *testing.T, dir string, ffs *faultfs.FS, nBase int) *store.Store {
	t.Helper()
	graphs, idx := faultState(t, nBase, 1)
	st, err := store.CreateFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	snap := &store.Snapshot{
		NextID:  int32(nBase),
		Base:    graphs,
		BaseIDs: idRange(nBase),
		Index:   idx,
	}
	if err := st.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestWALFsyncFailurePoisonsStore(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	st := newFaultStore(t, dir, ffs, 8)
	defer st.Close()
	rng := rand.New(rand.NewSource(2))

	// Two acknowledged mutations before the disk goes bad.
	if err := st.AppendInsert(8, tinyGraph(rng)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDelete(3); err != nil {
		t.Fatal(err)
	}

	ffs.FailAfter(faultfs.OpSync, ffs.Count(faultfs.OpSync))
	err := st.AppendInsert(9, tinyGraph(rng))
	if err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	if !errors.Is(err, store.ErrPoisoned) || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("error %v should wrap ErrPoisoned and the injected fault", err)
	}

	// Sticky: later mutations are rejected outright, without touching disk.
	if err := st.AppendDelete(1); !errors.Is(err, store.ErrPoisoned) {
		t.Fatalf("append after poisoning = %v, want ErrPoisoned", err)
	}
	if err := st.WriteSnapshot(&store.Snapshot{}); !errors.Is(err, store.ErrPoisoned) {
		t.Fatalf("snapshot after poisoning = %v, want ErrPoisoned", err)
	}
	if s := st.Stats(); !s.Poisoned || s.PoisonReason == "" {
		t.Fatalf("stats not poisoned: %+v", s)
	}
	if st.Poisoned() == nil {
		t.Fatal("Poisoned() returned nil on a poisoned store")
	}

	// Recovery over the same directory with a healthy filesystem sees
	// exactly the acknowledged prefix: the un-acked insert is gone.
	st2, snap, recs, err := store.OpenFS(dir, distance.EdgeMutation{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(snap.Base) != 8 {
		t.Fatalf("recovered base %d graphs, want 8", len(snap.Base))
	}
	if len(recs) != 2 || recs[0].Op != store.OpInsert || recs[0].ID != 8 ||
		recs[1].Op != store.OpDelete || recs[1].ID != 3 {
		t.Fatalf("recovered records %+v, want the two acked mutations", recs)
	}
	// The reopened store is healthy and accepts appends again.
	if err := st2.AppendDelete(2); err != nil {
		t.Fatal(err)
	}
}

// TestTornWALWriteDropsTornTail tears a WAL append mid-record AND fails
// the repair truncate, leaving real garbage on disk. Recovery must scan
// past the acked prefix, drop the torn bytes, and resume cleanly.
func TestTornWALWriteDropsTornTail(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	st := newFaultStore(t, dir, ffs, 8)
	defer st.Close()
	rng := rand.New(rand.NewSource(3))

	if err := st.AppendInsert(8, tinyGraph(rng)); err != nil {
		t.Fatal(err)
	}
	ffs.TornWrite(ffs.Count(faultfs.OpWrite)+1, 5)
	ffs.FailAfter(faultfs.OpFTruncate, ffs.Count(faultfs.OpFTruncate))
	if err := st.AppendInsert(9, tinyGraph(rng)); err == nil {
		t.Fatal("torn append succeeded")
	}
	if !st.Stats().Poisoned {
		t.Fatal("store not poisoned after torn write")
	}
	st.Close()

	st2, _, recs, err := store.OpenFS(dir, distance.EdgeMutation{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(recs) != 1 || recs[0].ID != 8 {
		t.Fatalf("recovered records %+v, want only the acked insert of 8", recs)
	}
	if st2.Stats().Recovery.DroppedBytes == 0 {
		t.Fatal("recovery reported no dropped bytes despite the torn tail")
	}
	if err := st2.AppendDelete(4); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotWriteFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	st := newFaultStore(t, dir, ffs, 6)
	defer st.Close()
	rng := rand.New(rand.NewSource(4))
	if err := st.AppendInsert(6, tinyGraph(rng)); err != nil {
		t.Fatal(err)
	}

	// The atomic temp+rename publish fails at the rename.
	ffs.FailAfter(faultfs.OpRename, ffs.Count(faultfs.OpRename))
	graphs, idx := faultState(t, 6, 1)
	snap := &store.Snapshot{NextID: 7, Base: graphs, BaseIDs: idRange(6), Index: idx}
	if err := st.WriteSnapshot(snap); err == nil {
		t.Fatal("snapshot write with failing rename succeeded")
	}
	if !st.Stats().Poisoned {
		t.Fatal("store not poisoned after snapshot failure")
	}
	if err := st.AppendDelete(1); !errors.Is(err, store.ErrPoisoned) {
		t.Fatalf("append after snapshot failure = %v, want ErrPoisoned", err)
	}

	// The failed snapshot never became visible: recovery uses the old
	// snapshot plus the acked WAL record.
	_, snap2, recs, err := store.OpenFS(dir, distance.EdgeMutation{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap2.Base) != 6 || len(recs) != 1 || recs[0].ID != 6 {
		t.Fatalf("recovered base=%d records=%+v, want the pre-failure state", len(snap2.Base), recs)
	}
}

// TestStoreChaosAckedPrefix runs randomized mutations under seeded
// random write/sync/rename faults. Whatever the store acknowledged
// before poisoning itself must be exactly what a healthy reopen
// recovers — no lost acks, no ghost mutations.
func TestStoreChaosAckedPrefix(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(nil)
			st := newFaultStore(t, dir, ffs, 8)
			rng := rand.New(rand.NewSource(seed))
			ffs.Chaos(seed, 0.05)

			type op struct {
				ins bool
				id  int32
			}
			var acked []op
			next := int32(8)
			for i := 0; i < 200; i++ {
				var o op
				var err error
				if rng.Intn(3) > 0 {
					o = op{ins: true, id: next}
					err = st.AppendInsert(o.id, tinyGraph(rng))
				} else {
					o = op{ins: false, id: rng.Int31n(next)}
					err = st.AppendDelete(o.id)
				}
				if err != nil {
					if !errors.Is(err, store.ErrPoisoned) {
						t.Fatalf("mutation error not poisoning: %v", err)
					}
					break
				}
				acked = append(acked, o)
				if o.ins {
					next++
				}
			}
			st.Close() // may fail under chaos; recovery must not care

			_, _, recs, err := store.OpenFS(dir, distance.EdgeMutation{}, nil)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if len(recs) != len(acked) {
				t.Fatalf("recovered %d records, acknowledged %d", len(recs), len(acked))
			}
			for i, r := range recs {
				want := store.OpDelete
				if acked[i].ins {
					want = store.OpInsert
				}
				if r.Op != want || r.ID != acked[i].id {
					t.Fatalf("record %d = {%v %d}, want {%v %d}", i, r.Op, r.ID, want, acked[i].id)
				}
			}
		})
	}
}
