package segment_test

import (
	"testing"
	"time"

	"pis/internal/segment"
)

// TestAddRollsUp pins the one roll-up rule: counts and bytes sum, the
// class count and MaxID are the larger, the sum is durable only when every
// card is, the snapshot sequence and last checkpoint are the oldest (a
// never-checkpointed shard's zero time is the oldest), and the first
// poisoned shard names the cause; the per-shard MutSeq is left zero.
func TestAddRollsUp(t *testing.T) {
	card := func(live, classes int, maxID int32, seq uint64, last time.Time, poison string) segment.Stats {
		c := segment.Stats{MutSeq: 10, Live: live, MaxID: maxID, Delta: 2, Tombstones: 1, Durable: true}
		c.Index.Classes, c.Index.Fragments = classes, 100
		c.Memory.StoreBytes, c.Memory.FingerprintBytes = 1000, 64*live
		c.Store.WALRecords, c.Store.SnapshotSeq, c.Store.LastCheckpoint = 3, seq, last
		c.Store.Poisoned, c.Store.PoisonReason = poison != "", poison
		return c
	}
	t0 := time.Unix(1_700_000_000, 0)
	var sum segment.Stats
	sum.Add(0, card(5, 4, 9, 3, t0.Add(time.Minute), ""))
	sum.Add(2, card(7, 4, 30, 2, t0, "disk full"))
	sum.Add(5, card(6, 3, 20, 4, t0.Add(time.Hour), "fsync failed"))
	if sum.Live != 18 || sum.MutSeq != 0 || sum.Delta != 6 || sum.Tombstones != 3 || sum.Index.Fragments != 300 ||
		sum.Memory.StoreBytes != 3000 || sum.Memory.FingerprintBytes != 64*18 || sum.Store.WALRecords != 9 {
		t.Errorf("sums: %+v", sum)
	}
	if sum.Index.Classes != 4 || sum.MaxID != 30 {
		t.Errorf("classes %d, max id %d; want the larger, 4 and 30", sum.Index.Classes, sum.MaxID)
	}
	if !sum.Durable || sum.Store.SnapshotSeq != 2 || !sum.Store.LastCheckpoint.Equal(t0) {
		t.Errorf("durable %v, snapshot %d, last checkpoint %v; want durable, the oldest 2 and %v",
			sum.Durable, sum.Store.SnapshotSeq, sum.Store.LastCheckpoint, t0)
	}
	if !sum.Store.Poisoned || sum.Store.PoisonReason != "shard 2: disk full" {
		t.Errorf("poisoned %v, %q; want the first poisoned shard named", sum.Store.Poisoned, sum.Store.PoisonReason)
	}
	never := card(1, 4, 40, 5, time.Time{}, "")
	never.Durable = false
	sum.Add(6, never)
	if sum.Durable || !sum.Store.LastCheckpoint.IsZero() {
		t.Errorf("with a shard never checkpointed and in memory: durable %v, last checkpoint %v", sum.Durable, sum.Store.LastCheckpoint)
	}
}

// TestStatsIsOneState: a segment's card is read under one lock, so while
// inserts and deletes run beside the reads, every card is a state the
// segment was in — ins inserts and del deletes after the first card, for
// one pair (ins, del). Nothing compacts (segConfig), so Delta is ins and
// Tombstones is del, and the other figures must agree with them.
func TestStatsIsOneState(t *testing.T) {
	const n0, inserts = 40, 200
	seg, graphs := newMemoSegment(t, n0)
	defer seg.Close()
	s0 := seg.Stats()
	fpBytes := s0.Memory.FingerprintBytes / n0

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range inserts {
			if _, err := seg.Insert(graphs[i%n0].Clone(), int32(n0+i)); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if ok, err := seg.Delete(int32(i / 2)); !ok || err != nil {
					t.Errorf("Delete(%d) = %v, %v", i/2, ok, err)
					return
				}
			}
		}
	}()
	pairs := make(map[[2]int]bool)
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		st := seg.Stats()
		ins, del := st.Delta, st.Tombstones
		pairs[[2]int{ins, del}] = true
		if st.Live != s0.Live+ins-del || st.MutSeq != s0.MutSeq+uint64(ins+del) ||
			st.MaxID != s0.MaxID+int32(ins) || st.Memory.FingerprintBytes != fpBytes*(n0+ins) {
			t.Fatalf("card of %d inserts and %d deletes reads live %d, mutation sequence %d, max id %d and %d fingerprint bytes; the first card read live %d, sequence %d, max id %d",
				ins, del, st.Live, st.MutSeq, st.MaxID, st.Memory.FingerprintBytes, s0.Live, s0.MutSeq, s0.MaxID)
		}
	}
	if st := seg.Stats(); st.Delta != inserts || st.Tombstones != inserts/2 {
		t.Fatalf("after the writer: delta %d, tombstones %d; want %d, %d", st.Delta, st.Tombstones, inserts, inserts/2)
	}
	t.Logf("%d distinct states read", len(pairs))
}
