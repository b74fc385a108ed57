package index

// The class trie walk, the index's one fragment finder, against direct
// canonicalization of every enumerated fragment.

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"pis/internal/canon"
	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/mining"
)

// denseRandomGraph builds a random connected labeled graph with n vertices
// and up to extra edges beyond a spanning tree: rings with chords and
// branched shapes denser than any molecule.
func denseRandomGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	b := graph.NewBuilder(n, n-1+extra)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VLabel(rng.Intn(4)))
	}
	seen := map[[2]int32]bool{}
	add := func(u, v int32) {
		if u > v {
			u, v = v, u
		}
		if u != v && !seen[[2]int32{u, v}] {
			seen[[2]int32{u, v}] = true
			b.AddEdge(u, v, graph.ELabel(rng.Intn(3)))
		}
	}
	for i := 1; i < n; i++ {
		add(int32(rng.Intn(i)), int32(i))
	}
	for t := 0; t < extra; t++ {
		add(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.MustBuild()
}

// directCode canonicalizes the fragment of host made of edges the direct
// way: extract it and run MinCode on its skeleton.
func directCode(host *graph.Graph, edges []int32) canon.Code {
	sub, _, _ := graph.Fragment{Host: host, Edges: edges}.Extract()
	code, _ := canon.MinCode(sub.Skeleton())
	return code
}

// everyOtherShape returns as features every other skeleton of at most
// maxEdges edges occurring in db, by key, so that both fragments in a
// class and fragments in none occur, and the class trie has prefixes that
// are not classes.
func everyOtherShape(db []*graph.Graph, maxEdges int) []mining.Feature {
	codes := map[string]canon.Code{}
	for _, g := range db {
		graph.EnumerateConnectedSubgraphs(g, maxEdges, func(edges []int32) bool {
			code := directCode(g, edges)
			codes[code.Key()] = code
			return true
		})
	}
	var feats []mining.Feature
	for i, key := range slices.Sorted(maps.Keys(codes)) {
		if i%2 == 0 {
			code := codes[key]
			feats = append(feats, mining.Feature{Key: key, Code: code, Graph: code.Graph(), Edges: len(code)})
		}
	}
	return feats
}

// trieFragments is a build's walk of the whole class trie over g, emitting
// fragments with their edges and vertices where a build emits ops.
func trieFragments(x *Index, g *graph.Graph, fs *FragmentScratch) []QueryFragment {
	fs.Reset()
	fs.w.run(x, g, nil, fs, nil)
	return fs.out
}

// TestClassifierDifferential: on molecules and on dense random graphs at
// every fragment size from 1 to 7 edges, the walk of the whole class trie
// (what a build runs) and the walks of every class path (what a query
// runs) each find every fragment whose directly computed code is a class
// exactly once, with its edges, its vertices and its key up to an
// automorphism, and a build folds one op per fragment into its class.
func TestClassifierDifferential(t *testing.T) {
	for maxE := 1; maxE <= 7; maxE++ {
		t.Run(fmt.Sprintf("edges=%d", maxE), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(maxE)))
			db := chem.Generate(max(2, 16-2*maxE), chem.Config{Seed: int64(maxE)})
			for i := 0; i < 6; i++ {
				db = append(db, denseRandomGraph(rng, 4+rng.Intn(4), 2+rng.Intn(5)))
			}
			x, err := scaffold(everyOtherShape(db, maxE), Options{Metric: distance.EdgeMutation{}, MaxFragmentEdges: maxE})
			if err != nil {
				t.Fatal(err)
			}
			var fs FragmentScratch
			var ops graphOps
			fragments := 0
			for gi, g := range db {
				want := queryFragmentsByExtract(x, g)
				if err := sameFragments(trieFragments(x, g, &fs), want); err != nil {
					t.Fatalf("graph %d, trie walk: %v", gi, err)
				}
				if err := sameFragments(x.QueryFragmentsInto(g, &fs), want); err != nil {
					t.Fatalf("graph %d, class paths: %v", gi, err)
				}
				ops = x.computeOps(ops, g, &fs)
				got := map[*Class]int{}
				for _, c := range ops.classes {
					got[c]++
				}
				for _, qf := range want {
					got[qf.Class]--
				}
				for c, n := range got {
					if n != 0 {
						t.Fatalf("graph %d: class %d gets %+d ops against the reference", gi, c.ID, n)
					}
				}
				fragments += len(want)
			}
			t.Logf("%d fragments, %d classes", fragments, len(x.list))
		})
	}
}

// TestQueryClassesMatchEnumeration: on molecules and on dense random
// graphs at every fragment size from 1 to 7 edges, the classes whose
// skeleton embeds in a graph are exactly the distinct classes of its
// enumerated fragments' direct codes, listed by ascending ID.
func TestQueryClassesMatchEnumeration(t *testing.T) {
	present, absent := 0, 0
	for maxE := 1; maxE <= 7; maxE++ {
		t.Run(fmt.Sprintf("edges=%d", maxE), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + maxE)))
			db := chem.Generate(12, chem.Config{Seed: int64(20 + maxE)})
			for i := 0; i < 8; i++ {
				db = append(db, denseRandomGraph(rng, 4+rng.Intn(5), 2+rng.Intn(6)))
			}
			x, err := scaffold(everyOtherShape(db, maxE), Options{Metric: distance.EdgeMutation{}, MaxFragmentEdges: maxE})
			if err != nil {
				t.Fatal(err)
			}
			var fs FragmentScratch
			var got []*Class
			for gi, g := range db {
				want := map[*Class]bool{}
				graph.EnumerateConnectedSubgraphs(g, maxE, func(edges []int32) bool {
					if c := x.Lookup(directCode(g, edges).Key()); c != nil {
						want[c] = true
					}
					return true
				})
				got = x.QueryClasses(got[:0], g, &fs)
				if len(got) != len(want) || !slices.IsSortedFunc(got, func(a, b *Class) int { return a.ID - b.ID }) {
					t.Fatalf("graph %d: found classes %v, enumeration has %d distinct", gi, classIDs(got), len(want))
				}
				for _, c := range got {
					if !want[c] {
						t.Fatalf("graph %d: class %d found, but no enumerated fragment falls in it", gi, c.ID)
					}
				}
				present += len(got)
				absent += len(x.list) - len(got)
			}
		})
	}
	if present < 1000 || absent < 1000 {
		t.Fatalf("%d classes found and %d absent: fixture too weak", present, absent)
	}
}

func classIDs(cs []*Class) []int {
	ids := make([]int, len(cs))
	for i, c := range cs {
		ids[i] = c.ID
	}
	return ids
}
