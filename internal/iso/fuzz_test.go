package iso

import (
	"testing"

	"pis/internal/graph"
)

// fuzzFeed deals deterministic decisions from fuzz input, wrapping
// around so every byte string decodes to a query, a host and a budget.
type fuzzFeed struct {
	data []byte
	i    int
}

func (f *fuzzFeed) next() int {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[f.i%len(f.data)]
	f.i++
	return int(b)
}

// fuzzGraph is growGraph on fuzz input: up to n ring-closing edges, and
// weights in tenths, which do not add exactly in binary, so the order of
// a Linear sum shows in its last bit.
func fuzzGraph(f *fuzzFeed, sub *graph.Graph, n int) *graph.Graph {
	intn := func(n int) int { return f.next() % n }
	return growGraph(intn, func() float64 { return float64(f.next()) / 10 }, sub, n, intn(n+1))
}

// FuzzVerifierDistance holds the table-driven kernel to the reference
// closure kernel, bit for bit, on arbitrary small inputs.
func FuzzVerifierDistance(f *testing.F) {
	f.Add([]byte{3, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{5, 12, 4, 2, 0x31, 0x07, 0x52, 0x12, 0x88, 0x19, 0x03, 0x44, 0x61, 0xfe})
	f.Fuzz(func(t *testing.T, data []byte) {
		feed := &fuzzFeed{data: data}
		q := fuzzGraph(feed, nil, feed.next()%7+1) // 1..7 vertices
		// Host: 1..14 vertices (sometimes fewer than q), grown around q's
		// structure half the time.
		sub, n := q, feed.next()%14+1
		if n < q.N() || feed.next()%2 == 0 {
			sub = nil
		}
		g := fuzzGraph(feed, sub, n)
		metric := kernelMetrics[feed.next()%len(kernelMetrics)]
		budget := kernelBudgets[feed.next()%len(kernelBudgets)]
		got, want := MinSuperimposedDistance(q, g, metric, budget), referenceDistance(q, g, metric, budget, nil)
		if got != want {
			t.Fatalf("metric %T budget %g: kernel=%v reference=%v\nq=%v\ng=%v", metric, budget, got, want, q, g)
		}
	})
}
