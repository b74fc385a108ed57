package segment_test

import (
	"sync"
	"testing"

	"pis/internal/graph"
)

// GraphBytes walks the graph lists outside the segment lock, so inserts
// and a compaction run beside it; under -race this checks that the walk
// reads only what they leave in place, and at the end it must count
// every graph the segment holds.
func TestGraphBytesDuringMutations(t *testing.T) {
	seg, graphs := newMemoSegment(t, 40)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, g := range graphs[:30] {
			if _, err := seg.Insert(g.Clone(), int32(40+i)); err != nil {
				t.Error(err)
				return
			}
			if i == 15 {
				if err := seg.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for range 200 {
		if n := seg.GraphBytes(); n <= 0 {
			t.Fatalf("GraphBytes() = %d", n)
		}
	}
	wg.Wait()
	want := 0
	for id := range int32(70) {
		g := seg.Graph(id)
		if g == nil {
			t.Fatalf("graph %d missing", id)
		}
		want += graph.HeapBytes(g)
	}
	if got := seg.GraphBytes(); got != want {
		t.Fatalf("GraphBytes() = %d, the segment's 70 graphs hold %d", got, want)
	}
}
