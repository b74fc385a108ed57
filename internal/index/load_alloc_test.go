package index

import (
	"runtime"
	"testing"

	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/mining"
)

// TestLoadBytesAllocatesOneImage: a heap load copies each entry block out
// of the image once, so the bytes it allocates grow by about one per
// image byte; the directory it decodes is the same for both sizes here
// (one feature set) and cancels out. Reading the image through a growing
// buffer first, as a reader-based load must, costs about five bytes more
// per image byte.
func TestLoadBytesAllocatesOneImage(t *testing.T) {
	metric := distance.EdgeMutation{}
	db := chem.Generate(4000, chem.Config{Seed: 1})
	feats, err := mining.Mine(db[:300], mining.Options{MaxEdges: 5, MinEdges: 2, MinSupportFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// loadCost returns the image of an index over graphs and the fewest
	// bytes any of three loads of it allocated.
	loadCost := func(graphs []*graph.Graph) (image int, alloc uint64) {
		x, err := BuildParallel(graphs, feats, Options{Metric: metric}, 0)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := imageBytes(t, x)
		alloc = ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := LoadBytes(data, metric); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		return len(data), alloc
	}
	smallImage, smallAlloc := loadCost(db[:1000])
	largeImage, largeAlloc := loadCost(db)
	perByte := (float64(largeAlloc) - float64(smallAlloc)) / float64(largeImage-smallImage)
	t.Logf("images %d / %d B, loads allocated %d / %d B: %.2f B per image byte", smallImage, largeImage, smallAlloc, largeAlloc, perByte)
	if perByte > 1.5 {
		t.Errorf("a heap load allocates %.2f B per image byte, want at most 1.5 (one copy of the entry blocks)", perByte)
	}
}
