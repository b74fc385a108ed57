package canon

import (
	"testing"

	"pis/internal/graph"
)

// byteFeed deals deterministic pseudo-random decisions from fuzz input,
// wrapping around so every byte string decodes to something.
type byteFeed struct {
	data []byte
	i    int
}

func (f *byteFeed) next() int {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[f.i%len(f.data)]
	f.i++
	return int(b)
}

// fuzzGraph decodes a small connected labeled graph from fuzz input: a
// spanning tree first (connectivity by construction), then up to n extra
// edges, skipping duplicates.
func fuzzGraph(f *byteFeed) *graph.Graph {
	n := f.next()%6 + 2 // 2..7 vertices
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VLabel(f.next() % 4))
	}
	seen := map[[2]int32]bool{}
	addEdge := func(u, v int32, l graph.ELabel) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int32{u, v}] {
			return
		}
		seen[[2]int32{u, v}] = true
		b.AddEdge(u, v, l)
	}
	for v := 1; v < n; v++ {
		addEdge(int32(f.next()%v), int32(v), graph.ELabel(f.next()%3))
	}
	for i := 0; i < f.next()%n; i++ {
		addEdge(int32(f.next()%n), int32(f.next()%n), graph.ELabel(f.next()%3))
	}
	return b.MustBuild()
}

// fuzzPerm deals a permutation of [0, n) by Fisher-Yates.
func fuzzPerm(f *byteFeed, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := f.next() % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// permuteGraph rebuilds g with vertex old relabeled to perm[old] — an
// isomorphic graph with a different adjacency layout.
func permuteGraph(g *graph.Graph, perm []int) *graph.Graph {
	b := graph.NewBuilder(g.N(), g.M())
	inv := make([]int, g.N())
	for old, nw := range perm {
		inv[nw] = old
	}
	for nw := 0; nw < g.N(); nw++ {
		b.AddVertex(g.VLabelAt(inv[nw]))
	}
	for e := 0; e < g.M(); e++ {
		ed := g.EdgeAt(e)
		b.AddEdge(int32(perm[ed.U]), int32(perm[ed.V]), ed.Label)
	}
	return b.MustBuild()
}

// FuzzCanonicalCode checks the canonicalization invariant the whole
// index relies on: the minimum DFS code — labeled and unlabeled — of a
// graph is identical for every vertex ordering. A violation would split
// one structural equivalence class into several and silently drop
// answers, so this is the deepest soundness property in the system. It
// checks GraphKey the same way, against the minimum-DFS-code key it
// replaced: a wrong key would hand one query another's cached answers.
func FuzzCanonicalCode(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 1, 2, 1, 0, 2})
	f.Add([]byte{5, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3})
	f.Add([]byte{0xff, 0x80, 0x41, 7, 9, 13, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		feed := &byteFeed{data: data}
		g := fuzzGraph(feed)
		perm := fuzzPerm(feed, g.N())
		h := permuteGraph(g, perm)

		code, embs := MinCode(g)
		pcode, pembs := MinCode(h)
		if code.Key() != pcode.Key() {
			t.Fatalf("labeled min code changed under permutation %v:\n g: %v\n h: %v", perm, code, pcode)
		}
		if len(embs) == 0 || len(pembs) == 0 {
			t.Fatal("MinCode returned no embeddings")
		}
		ucode, _ := MinCode(g.Skeleton())
		pucode, _ := MinCode(h.Skeleton())
		if ucode.Key() != pucode.Key() {
			t.Fatalf("unlabeled min code changed under permutation %v", perm)
		}
		// The code's skeleton must reproduce the graph's size.
		back := code.Graph()
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("code skeleton %dv/%de, graph %dv/%de", back.N(), back.M(), g.N(), g.M())
		}
		// The query key: a permuted copy keeps it unless it is capped, and
		// it tells g from a second decoded graph exactly when the
		// reference does.
		key := GraphKey(g)
		capped := keyKind(key) == keyOwnOrder
		if !capped && GraphKey(h) != key {
			t.Fatalf("GraphKey changed under permutation %v", perm)
		}
		o := fuzzGraph(feed)
		same, ref := GraphKey(o) == key, minCodeKey(o) == minCodeKey(g)
		if same && !ref || ref && !same && !capped {
			t.Fatalf("GraphKey equal %v, reference equal %v:\n g: %v\n o: %v", same, ref, g, o)
		}
	})
}
