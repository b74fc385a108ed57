package index

// Classification by extension (canon.Shapes) against direct
// canonicalization, and the shape table under concurrent first use.

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
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
// class and fragments in none occur.
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

// TestClassifierDifferential: on molecules and on dense random graphs at
// every fragment size from 1 to 7 edges, every enumerated fragment gets
// the class of its directly computed code, its placement is an embedding
// of the code graph (tuple (i, j) lands on a fragment edge joining the
// vertices placed at i and j), and QueryFragmentsInto returns what the
// reference classifier does.
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
			fragments := 0
			for gi, g := range db {
				fs.enum.Enumerate(g, maxE, func(edges []int32) bool {
					p := fs.cl.Classify(x.shapes, g, edges)
					key := directCode(g, edges).Key()
					if p.Shape.Key != key || p.Shape.Class != x.classes[key] {
						t.Fatalf("graph %d fragment %v: shape %v, direct code %v", gi, edges, p.Shape.Code, directCode(g, edges))
					}
					sorted := slices.Sorted(slices.Values(edges))
					if !slices.Equal(slices.Sorted(slices.Values(p.Edges)), sorted) {
						t.Fatalf("graph %d fragment %v: placed on edges %v", gi, edges, p.Edges)
					}
					for k, tu := range p.Shape.Code {
						e, u, v := g.EdgeAt(int(p.Edges[k])), p.Vertices[tu.I], p.Vertices[tu.J]
						if !(e.U == u && e.V == v) && !(e.U == v && e.V == u) {
							t.Fatalf("graph %d fragment %v: tuple %d placed on %d-%d, not %d-%d", gi, edges, k, e.U, e.V, u, v)
						}
					}
					fragments++
					return true
				})
				if err := sameFragments(x.QueryFragmentsInto(g, &fs), queryFragmentsByExtract(x, g)); err != nil {
					t.Fatalf("graph %d: %v", gi, err)
				}
			}
			shapes, transitions := x.shapes.Len()
			t.Logf("%d fragments, %d classes, %d shapes, %d transitions", fragments, len(x.list), shapes, transitions)
		})
	}
}

// TestQueryClassesMatchEnumeration: on molecules and on dense random
// graphs at every fragment size from 1 to 7 edges, the classes whose
// skeleton embeds in a graph are exactly the distinct classes of the
// fragments a build enumerates in it, listed by ascending ID.
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
				x.each(g, &fs, func(p *canon.Placement[Class]) { want[p.Shape.Class] = true })
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

// TestColdShapeTableRace: BuildParallel's fold with 8 workers on a cold
// shape table, beside goroutines finding queries' fragments in the same
// index, writes the image a serial build writes byte for byte, and every
// query gets the fragments a built index gives. Run it under -race.
func TestColdShapeTableRace(t *testing.T) {
	db := chem.Generate(150, chem.Config{Seed: 5})
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 5, MinEdges: 2, MinSupportFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Metric: distance.EdgeMutation{}}
	serial, err := Build(db, feats, opts)
	if err != nil {
		t.Fatal(err)
	}
	queries := chem.SampleQueries(db, 12, 16, 3)
	x, err := scaffold(feats, opts)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			var fs FragmentScratch
			for i := range queries {
				q := queries[(i+w)%len(queries)]
				got, want := x.QueryFragmentsInto(q, &fs), serial.QueryFragments(q)
				if len(got) != len(want) {
					errs <- fmt.Errorf("%d fragments on the cold table, %d on the warm one", len(got), len(want))
					return
				}
				for j := range got {
					if got[j].Class.ID != want[j].Class.ID || !slices.Equal(got[j].Edges, want[j].Edges) ||
						!slices.Equal(got[j].Vertices, want[j].Vertices) || !slices.Equal(got[j].Key, want[j].Key) {
						errs <- fmt.Errorf("fragment %d differs between the cold and the warm table", j)
						return
					}
				}
			}
		}(w)
	}
	close(start)
	x.foldAndSeal(db, 0, 8)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got, _ := imageBytes(t, x)
	want, _ := imageBytes(t, serial)
	if !bytes.Equal(got, want) {
		t.Fatal("parallel build on a cold table beside queries wrote another image than a serial build")
	}
}
