package index

// Differential tests, allocation ceilings and micro-benchmarks for the
// per-query filter steps that run on scratch: finding fragments
// (QueryFragmentsInto against a reference classifier that extracts and
// canonicalizes every enumerated fragment)
// and sort-free range output (RangeQueryInto against a map-and-sort fold
// of every stored entry).

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"pis/internal/canon"
	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/fsys"
	"pis/internal/graph"
	"pis/internal/mining"
)

// molFixture is a molecule-like corpus (rings, fused rings, heteroatoms,
// optional weights) with the serving defaults for mining, so queries of
// 8-24 edges enumerate the few hundred fragments real searches do.
type molFixture struct {
	db     []*graph.Graph
	heap   *Index
	mapped *Index
}

func newMolFixture(t testing.TB, metric distance.Metric, n int) molFixture {
	t.Helper()
	db := chem.Generate(n, chem.Config{Seed: 11, Weighted: distance.ReadsWeights(metric)})
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 5, MinEdges: 2, MinSupportFraction: 0.05, SampleSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	heap, err := Build(db, feats, Options{Metric: metric})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.pisidx3")
	if err := fsys.WriteFileAtomic(fsys.OS, filepath.Dir(path), filepath.Base(path), heap.Save); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path, metric)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return molFixture{db: db, heap: heap, mapped: mapped}
}

// queryFragmentsByExtract is the reference classifier: one extracted
// Graph per enumerated fragment, canonicalized directly and read back
// through the extracted copy along the first canonical embedding.
func queryFragmentsByExtract(x *Index, q *graph.Graph) []QueryFragment {
	var out []QueryFragment
	graph.EnumerateConnectedSubgraphs(q, x.opts.MaxFragmentEdges, func(edges []int32) bool {
		ecopy := append([]int32(nil), edges...)
		sort.Slice(ecopy, func(i, j int) bool { return ecopy[i] < ecopy[j] })
		frag := graph.Fragment{Host: q, Edges: ecopy}
		sub, _, _ := frag.Extract()
		code, embs := canon.MinCode(sub.Skeleton())
		c := x.Lookup(code.Key())
		if c == nil {
			return true
		}
		qf := QueryFragment{Class: c, Edges: ecopy, Vertices: frag.Vertices()}
		emb := embs[0]
		qf.Key = make([]uint64, c.SeqLen())
		for k := 0; k < c.vOff; k++ {
			v := int(emb.Vertices[k])
			qf.Key[k] = uint64(sub.VLabelAt(v))
			if x.weights {
				qf.Key[k] = math.Float64bits(sub.VWeightAt(v))
			}
		}
		for t := 0; t < c.NumE; t++ {
			e := sub.EdgeAt(int(emb.Edges[t]))
			qf.Key[c.vOff+t] = uint64(e.Label)
			if x.weights {
				qf.Key[c.vOff+t] = math.Float64bits(e.Weight)
			}
		}
		out = append(out, qf)
		return true
	})
	return out
}

// orbitEqual reports whether key a is one of c's automorphism variants of
// key b: the same fragment laid out along another canonical embedding,
// which every range query prices alike.
func orbitEqual(c *Class, a, b []uint64) bool {
	return slices.ContainsFunc(c.Variants(b), func(v []uint64) bool { return slices.Equal(v, a) })
}

// sameFragments compares two fragment lists as sets: class, edges and
// vertices exactly, keys up to an automorphism. A query lists its
// fragments class by class, a build in enumeration order.
func sameFragments(a, b []QueryFragment) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d fragments, want %d", len(a), len(b))
	}
	byClassAndEdges := func(f, g QueryFragment) int {
		if f.Class.ID != g.Class.ID {
			return f.Class.ID - g.Class.ID
		}
		return slices.Compare(f.Edges, g.Edges)
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, byClassAndEdges)
	slices.SortFunc(b, byClassAndEdges)
	for i := range a {
		switch {
		case a[i].Class != b[i].Class:
			return fmt.Errorf("fragment %d: class %d, want %d", i, a[i].Class.ID, b[i].Class.ID)
		case !slices.Equal(a[i].Edges, b[i].Edges):
			return fmt.Errorf("fragment %d: edges %v, want %v", i, a[i].Edges, b[i].Edges)
		case !slices.Equal(a[i].Vertices, b[i].Vertices):
			return fmt.Errorf("fragment %d: vertices %v, want %v", i, a[i].Vertices, b[i].Vertices)
		case !orbitEqual(a[i].Class, a[i].Key, b[i].Key):
			return fmt.Errorf("fragment %d: key %v is no variant of %v", i, a[i].Key, b[i].Key)
		}
	}
	return nil
}

// TestQueryFragmentsMatchExtract: the embedding walk returns the
// reference classifier's fragments — class, edges, vertices, key of labels
// or weights up to an automorphism — for every metric, with one scratch
// reused across all queries and with a fresh one per query.
func TestQueryFragmentsMatchExtract(t *testing.T) {
	for _, k := range metricCases {
		t.Run(k.name, func(t *testing.T) {
			fx := newMolFixture(t, k.metric, 200)
			var fs FragmentScratch
			checked := 0
			for _, m := range []int{8, 12, 16, 24} {
				for _, q := range chem.SampleQueries(fx.db, 12, m, int64(m)) {
					want := queryFragmentsByExtract(fx.heap, q)
					if err := sameFragments(fx.heap.QueryFragmentsInto(q, &fs), want); err != nil {
						t.Fatalf("Q%d reused scratch: %v", m, err)
					}
					if err := sameFragments(fx.heap.QueryFragments(q), want); err != nil {
						t.Fatalf("Q%d fresh scratch: %v", m, err)
					}
					checked += len(want)
				}
			}
			if checked < 1000 {
				t.Fatalf("only %d fragments compared", checked)
			}
		})
	}
}

// TestQueryFragmentsSurviveSlabGrowth: fragments carved before a slab
// reallocates must stay intact, and a later append through one of them
// must not reach its neighbour.
func TestQueryFragmentsSurviveSlabGrowth(t *testing.T) {
	fx := newMolFixture(t, distance.EdgeMutation{}, 200)
	q := chem.SampleQueries(fx.db, 1, 24, 3)[0]
	got := fx.heap.QueryFragments(q) // a fresh scratch grows from nothing
	if err := sameFragments(got, queryFragmentsByExtract(fx.heap, q)); err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(got[1].Edges)
	_ = append(got[0].Vertices, -1)
	_ = append(got[0].Edges, -1)
	if !slices.Equal(got[1].Edges, want) {
		t.Fatalf("append through fragment 0 rewrote fragment 1: %v, want %v", got[1].Edges, want)
	}
}

// rangeByFold answers the range query the slow way: every stored entry of
// the class against every automorphism variant of the probe, one variant
// at a time, min-folded per graph in a map and sorted at the end.
func rangeByFold(x *Index, qf QueryFragment, sigma float64, tombs *Tombstones) (ids []int32, dists []float64) {
	c := qf.Class
	best := map[int32]float64{}
	c.eachEntry(func(key []uint64, run []int32) {
		d := math.Inf(1)
		for _, v := range c.Variants(qf.Key) {
			sum := 0.0
			for i, a := range v {
				sum += x.cost(c, i, a, key[i])
			}
			d = math.Min(d, sum)
		}
		for _, id := range run {
			if old, ok := best[id]; d <= sigma && !tombs.Has(id) && (!ok || d < old) {
				best[id] = d
			}
		}
	})
	for id := range best {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		dists = append(dists, best[id])
	}
	return ids, dists
}

// randomTombstones deletes about one graph in five.
func randomTombstones(rng *rand.Rand, n int) *Tombstones {
	var tombs *Tombstones
	for id := 0; id < n; id++ {
		if rng.Intn(5) == 0 {
			tombs = tombs.WithSet(int32(id))
		}
	}
	return tombs
}

// TestRangeQueryIntoAscendingAndExact: for random fragments and radii the
// output is strictly ascending (hence duplicate-free), free of tombstoned
// ids, equal to the map-based RangeQuery, identical between the heap and
// the mapped index, and equal to the brute-force fold — with one
// RangeBuffer reused throughout, so a bit left behind would show.
func TestRangeQueryIntoAscendingAndExact(t *testing.T) {
	for _, k := range metricCases {
		t.Run(k.name, func(t *testing.T) {
			fx := newMolFixture(t, k.metric, 200)
			rng := rand.New(rand.NewSource(7))
			tombs := randomTombstones(rng, len(fx.db))
			var hp, mp PostingList
			var hb, mb RangeBuffer
			nonEmpty := 0
			for _, q := range chem.SampleQueries(fx.db, 30, 12, 5) {
				hfs, mfs := fx.heap.QueryFragments(q), fx.mapped.QueryFragments(q)
				if len(hfs) != len(mfs) || len(hfs) == 0 {
					t.Fatalf("%d heap fragments, %d mapped", len(hfs), len(mfs))
				}
				for trial := 0; trial < 6; trial++ {
					i := rng.Intn(len(hfs))
					sigma := float64(rng.Intn(13)) / 4 // the matrix and Linear price in fractions
					tb := tombs
					if trial%2 == 0 {
						tb = nil
					}
					fx.heap.RangeQueryInto(hfs[i], sigma, &hp, &hb, tb)
					fx.mapped.RangeQueryInto(mfs[i], sigma, &mp, &mb, tb)
					for j := range hp.IDs {
						if j > 0 && hp.IDs[j] <= hp.IDs[j-1] {
							t.Fatalf("sigma=%v: ids not strictly ascending at %d: %v", sigma, j, hp.IDs)
						}
						if tb.Has(hp.IDs[j]) {
							t.Fatalf("sigma=%v: tombstoned id %d returned", sigma, hp.IDs[j])
						}
					}
					if !slices.Equal(hp.IDs, mp.IDs) || !slices.Equal(hp.Dists, mp.Dists) {
						t.Fatalf("sigma=%v: heap and mapped differ:\n%v %v\n%v %v", sigma, hp.IDs, hp.Dists, mp.IDs, mp.Dists)
					}
					wantIDs, wantDists := rangeByFold(fx.heap, hfs[i], sigma, tb)
					if !slices.Equal(hp.IDs, wantIDs) || !slices.Equal(hp.Dists, wantDists) {
						t.Fatalf("sigma=%v: got\n%v %v\nbrute force\n%v %v", sigma, hp.IDs, hp.Dists, wantIDs, wantDists)
					}
					if tb == nil {
						asMap := fx.mapped.RangeQuery(mfs[i], sigma)
						if len(asMap) != len(hp.IDs) {
							t.Fatalf("sigma=%v: RangeQuery has %d ids, RangeQueryInto %d", sigma, len(asMap), len(hp.IDs))
						}
						for j, id := range hp.IDs {
							if d, ok := asMap[id]; !ok || d != hp.Dists[j] {
								t.Fatalf("sigma=%v: id %d: map says (%v,%v), list %v", sigma, id, d, ok, hp.Dists[j])
							}
						}
					}
					if len(hp.IDs) > 0 {
						nonEmpty++
					}
				}
			}
			if nonEmpty < 60 {
				t.Fatalf("only %d non-empty range results", nonEmpty)
			}
		})
	}
}

// TestRangeBufferSharedAcrossSizes: one buffer serving indexes of
// different sizes, smaller first, must regrow for the larger one.
func TestRangeBufferSharedAcrossSizes(t *testing.T) {
	small, sdb := buildSmall(t, distance.EdgeMutation{}, 3, 65)
	large, ldb := buildSmall(t, distance.EdgeMutation{}, 3, 120)
	var pl PostingList
	var rb RangeBuffer
	for _, side := range []struct {
		x  *Index
		db []*graph.Graph
	}{{small, sdb}, {large, ldb}, {small, sdb}} {
		for _, g := range side.db {
			for _, qf := range side.x.QueryFragments(g) {
				side.x.RangeQueryInto(qf, 2, &pl, &rb, nil)
				if want := side.x.RangeQuery(qf, 2); len(want) != len(pl.IDs) {
					t.Fatalf("n=%d: %d ids through the shared buffer, %d through a fresh one", len(side.db), len(pl.IDs), len(want))
				}
			}
		}
	}
}

// TestQueryFragmentsAllocs: a warmed-up enumeration of a Q24 query —
// about 250 indexed fragments — allocates nothing, where the
// Extract-based one made about 7,700 allocations per query.
func TestQueryFragmentsAllocs(t *testing.T) {
	fx := newMolFixture(t, distance.EdgeMutation{}, 200)
	qs := chem.SampleQueries(fx.db, 8, 24, 9)
	var fs FragmentScratch
	frags := 0
	for _, q := range qs {
		frags += len(fx.heap.QueryFragmentsInto(q, &fs))
	}
	if frags < 8*100 {
		t.Fatalf("only %d fragments over %d queries", frags, len(qs))
	}
	i := 0
	if avg := testing.AllocsPerRun(50, func() {
		fx.heap.QueryFragmentsInto(qs[i%len(qs)], &fs)
		i++
	}); avg > 0 {
		t.Errorf("QueryFragmentsInto allocates %.1f times per Q24 query on a warm scratch, want 0", avg)
	}
}

// TestBuildMatchesExtractOps: the build folds exactly the ops the
// reference classifier gives, for every metric — the check behind "label
// images are byte-identical": a label key is stored as its smallest
// variant, a weight key as its placement lays it out. The ops compare as a
// multiset: the trie walk's order is not enumeration order, and no image
// depends on fold order (entries are sorted, ids applied ascending).
func TestBuildMatchesExtractOps(t *testing.T) {
	type op struct {
		c          *Class
		key, least []uint64 // least: the key's smallest variant
	}
	newOp := func(c *Class, key []uint64) op {
		return op{c, key, slices.MinFunc(c.Variants(key), slices.Compare[[]uint64])}
	}
	byClassAndLeast := func(a, b op) int { return cmp.Or(a.c.ID-b.c.ID, slices.Compare(a.least, b.least)) }
	for _, k := range metricCases {
		t.Run(k.name, func(t *testing.T) {
			fx := newMolFixture(t, k.metric, 60)
			x := fx.heap
			var fs FragmentScratch
			for _, g := range fx.db {
				ops := x.computeOps(graphOps{}, g, &fs)
				var got, want []op
				keys := ops.keys
				for _, c := range ops.classes {
					got = append(got, newOp(c, keys[:c.SeqLen()]))
					keys = keys[c.SeqLen():]
				}
				if len(keys) != 0 {
					t.Fatalf("%d key words left over", len(keys))
				}
				for _, qf := range queryFragmentsByExtract(x, g) {
					want = append(want, newOp(qf.Class, qf.Key))
				}
				if len(got) != len(want) {
					t.Fatalf("%d ops for a graph of %d edges, want %d", len(got), g.M(), len(want))
				}
				slices.SortFunc(got, byClassAndLeast)
				slices.SortFunc(want, byClassAndLeast)
				for i, o := range got {
					wantKey := want[i].key
					if !x.weights {
						wantKey = want[i].least
					}
					if o.c != want[i].c || (!x.weights && !slices.Equal(o.key, wantKey)) || !orbitEqual(o.c, o.key, wantKey) {
						t.Fatalf("op %d: class %d key %v, want class %d key %v", i, o.c.ID, o.key, want[i].c.ID, wantKey)
					}
				}
			}
		})
	}
}

func benchQueries(b *testing.B, fx molFixture, m int) []*graph.Graph {
	b.Helper()
	return chem.SampleQueries(fx.db, 32, m, int64(m))
}

// BenchmarkQueryFragments is fragment enumeration alone, per query.
func BenchmarkQueryFragments(b *testing.B) {
	fx := newMolFixture(b, distance.EdgeMutation{}, 400)
	for _, m := range []int{16, 24} {
		b.Run(fmt.Sprintf("Q%d", m), func(b *testing.B) {
			qs := benchQueries(b, fx, m)
			var fs FragmentScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.heap.QueryFragmentsInto(qs[i%len(qs)], &fs)
			}
		})
	}
}

// BenchmarkQueryClasses is finding a query's classes alone — one walk per
// class, stopping at the first embedding — and materializing the first of
// them, per query. 0 allocs/op once the scratch has grown.
func BenchmarkQueryClasses(b *testing.B) {
	fx := newMolFixture(b, distance.EdgeMutation{}, 400)
	for _, m := range []int{16, 24} {
		qs := benchQueries(b, fx, m)
		var fs FragmentScratch
		var classes []*Class
		b.Run(fmt.Sprintf("Q%d/find", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				classes = fx.heap.QueryClasses(classes[:0], qs[i%len(qs)], &fs)
			}
		})
		b.Run(fmt.Sprintf("Q%d/materialize-first", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				classes = fx.heap.QueryClasses(classes[:0], q, &fs)
				fs.Reset()
				fx.heap.ClassFragments(q, classes[0], &fs)
			}
		})
	}
}

// BenchmarkRangeQueryInto is one range query with the median fragment of
// a Q24 query (the selective workload's shape) per metric family, radius
// and residency: what the per-class structures of the paper's Figure 5
// used to differ on. 0 allocs/op is the steady state of every cell.
func BenchmarkRangeQueryInto(b *testing.B) {
	for _, tc := range []struct {
		name   string
		metric distance.Metric
		sigmas []float64
	}{
		{"EdgeMutation", distance.EdgeMutation{}, []float64{1, 2, 4}},
		{"FullMutation", distance.FullMutation{}, []float64{1, 2, 4}},
		{"Linear", distance.Linear{}, []float64{0.3, 1.5}},
	} {
		fx := newMolFixture(b, tc.metric, 2000)
		for _, side := range []struct {
			name string
			x    *Index
		}{{"heap", fx.heap}, {"mapped", fx.mapped}} {
			var qfs []QueryFragment
			for _, q := range benchQueries(b, fx, 24) {
				fs := side.x.QueryFragments(q)
				qfs = append(qfs, fs[len(fs)/2])
			}
			for _, sigma := range tc.sigmas {
				b.Run(fmt.Sprintf("%s/sigma=%v/%s", tc.name, sigma, side.name), func(b *testing.B) {
					var pl PostingList
					var rb RangeBuffer
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						side.x.RangeQueryInto(qfs[i%len(qfs)], sigma, &pl, &rb, nil)
					}
				})
			}
		}
	}
}
