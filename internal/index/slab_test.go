package index

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/graph"
)

// handClass is a class with the given key layout and automorphisms whose
// entries the test supplies as they are — in any order, repeated — laid
// out by entries.add in the image's layout, as one entry block. heap holds
// the block's columns as built, and mapped the same bytes as a reader finds
// them in an image (splitEntries).
func handClass(x *Index, vOff, numE int, perms [][]int, keys [][]uint64, runs [][]int32) (heap, mapped *Class) {
	heap = &Class{NumV: vOff, NumE: numE, vOff: vOff, perms: perms}
	heap.ents = x.newEntries(heap)
	for e, key := range keys {
		n := len(heap.ents.ids)
		heap.ents.ids = appendIDs(heap.ents.ids, runs[e])
		heap.ents.add(key, len(heap.ents.ids)-n)
	}
	var block []byte
	for _, col := range [][]byte{heap.ents.ids, heap.ents.keys, heap.ents.lcp, heap.ents.ends} {
		block = append(block, col...)
	}
	m := *heap
	mapped = &m
	var ok bool
	if mapped.ents, ok = splitEntries(block, len(keys), x.newEntries(heap)); !ok {
		panic("handClass: the block does not hold its entries")
	}
	return heap, mapped
}

// foldEntries is the brute-force range query over explicit entries: every
// entry priced from scratch under every automorphism, min-folded per id.
func foldEntries(x *Index, c *Class, probe []uint64, keys [][]uint64, runs [][]int32, sigma float64, tombs *Tombstones) (ids []int32, dists []float64) {
	best := map[int32]float64{}
	for e, key := range keys {
		d := math.Inf(1)
		for _, p := range c.perms {
			sum := 0.0
			for i, src := range p {
				sum += x.cost(c, i, probe[src], key[i])
			}
			d = math.Min(d, sum)
		}
		for _, id := range runs[e] {
			if old, ok := best[id]; d <= sigma && !tombs.Has(id) && (!ok || d < old) {
				best[id] = d
			}
		}
	}
	for id := range best {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		dists = append(dists, best[id])
	}
	return ids, dists
}

// TestScanMatchesFold drives the scan over hand-made classes of different
// key lengths through ONE RangeBuffer, on the entry block as built and as
// read back from its bytes, and compares every answer with the brute-force
// fold.
func TestScanMatchesFold(t *testing.T) {
	const dbSize = 200
	rng := rand.New(rand.NewSource(17))
	randomRun := func() []int32 {
		run := make([]int32, 1+rng.Intn(4))
		for i := range run {
			run[i] = int32(rng.Intn(dbSize))
		}
		slices.Sort(run)
		return slices.Compact(run)
	}
	// Entries in arrival order, every fourth one a repeat of an earlier
	// key: the scan may not rely on sorted or distinct keys.
	randomEntries := func(n, keyLen, alphabet int) (keys [][]uint64, runs [][]int32) {
		for e := 0; e < n; e++ {
			key := make([]uint64, keyLen)
			for i := range key {
				key[i] = uint64(rng.Intn(alphabet))
			}
			if e%4 == 3 {
				key = keys[rng.Intn(e)]
			}
			keys, runs = append(keys, key), append(runs, randomRun())
		}
		return keys, runs
	}
	tombs := (*Tombstones)(nil)
	for id := int32(0); id < dbSize; id += 7 {
		tombs = tombs.WithSet(id)
	}
	id3 := [][]int{{0, 1, 2}}
	// A triangle's six automorphisms over (3 vertex, 3 edge) positions.
	var triangle [][]int
	for _, v := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		edge := func(a, b int) int {
			return 3 + map[[2]int]int{{0, 1}: 0, {1, 2}: 1, {0, 2}: 2}[[2]int{min(a, b), max(a, b)}]
		}
		triangle = append(triangle, []int{v[0], v[1], v[2], edge(v[0], v[1]), edge(v[1], v[2]), edge(v[0], v[2])})
	}
	labels := &Index{opts: Options{Metric: testMatrix()}, dbSize: dbSize}
	weights := &Index{opts: Options{Metric: distance.Linear{IncludeVertices: true}}, weights: true, dbSize: dbSize}

	type class struct {
		name       string
		x          *Index
		vOff, numE int
		perms      [][]int
		keys       [][]uint64
		runs       [][]int32
		probes     [][]uint64
	}
	var classes []class
	add := func(name string, x *Index, vOff, numE int, perms [][]int, keys [][]uint64, runs [][]int32, probes ...[]uint64) {
		classes = append(classes, class{name, x, vOff, numE, perms, keys, runs, probes})
	}
	k, r := randomEntries(60, 6, 3)
	add("triangle, six automorphisms", labels, 3, 3, triangle, k, r, k[0], k[11], []uint64{0, 1, 0, 2, 2, 1})
	add("zero-length key", labels, 0, 0, [][]int{{}}, [][]uint64{{}, {}}, [][]int32{{3, 9}, {9, 14}}, []uint64{})
	k, r = randomEntries(40, 3, 4)
	add("path, two automorphisms", labels, 0, 3, [][]int{{0, 1, 2}, {2, 1, 0}}, k, r, k[5], []uint64{3, 3, 0})
	// 300 sorted entries share a first symbol that alone costs more than
	// any σ below: all but the first are skipped on the shared prefix.
	var longKeys [][]uint64
	var longRuns [][]int32
	for e := 0; e < 300; e++ {
		longKeys = append(longKeys, []uint64{2, uint64(e / 20), uint64(e % 20)})
		longRuns = append(longRuns, randomRun())
	}
	longKeys, longRuns = append(longKeys, []uint64{9, 0, 0}), append(longRuns, []int32{1, 2})
	add("run sharing a prefix over budget", labels, 0, 3, id3, longKeys, longRuns, []uint64{9, 0, 0}, []uint64{2, 7, 7})
	var wkeys [][]uint64
	k, r = randomEntries(50, 3, 5)
	for _, key := range k {
		w := make([]uint64, len(key))
		for i, s := range key {
			w[i] = math.Float64bits(float64(s)/4 - 0.5) // negative weights too
		}
		wkeys = append(wkeys, w)
	}
	add("weights", weights, 1, 2, [][]int{{0, 1, 2}, {0, 2, 1}}, wkeys, r, wkeys[2], wkeys[20])

	var pl PostingList
	var rb RangeBuffer
	answered := 0
	for round := 0; round < 2; round++ { // the second round meets a warm buffer
		for _, cl := range classes {
			heap, mapped := handClass(cl.x, cl.vOff, cl.numE, cl.perms, cl.keys, cl.runs)
			for _, probe := range cl.probes {
				for _, sigma := range []float64{-1, 0, 0.25, 0.5, 1, 2.5, 100} {
					for _, tb := range []*Tombstones{nil, tombs} {
						wantIDs, wantDists := foldEntries(cl.x, heap, probe, cl.keys, cl.runs, sigma, tb)
						for side, c := range map[string]*Class{"heap": heap, "mapped": mapped} {
							cl.x.RangeQueryInto(QueryFragment{Class: c, Key: probe}, sigma, &pl, &rb, tb)
							if !slices.Equal(pl.IDs, wantIDs) || !slices.Equal(pl.Dists, wantDists) {
								t.Fatalf("%s, %s, probe %v, σ=%v: got\n%v %v\nbrute force\n%v %v",
									cl.name, side, probe, sigma, pl.IDs, pl.Dists, wantIDs, wantDists)
							}
						}
						if sigma < 0 && len(wantIDs) != 0 {
							t.Fatalf("%s: the fold answers a negative σ", cl.name)
						}
						answered += len(wantIDs)
					}
				}
			}
		}
	}
	if answered < 2000 {
		t.Fatalf("only %d answers compared", answered)
	}

	// The skip is what keeps the long run cheap: count the positions priced.
	cl := classes[3]
	counting := &Index{opts: Options{Metric: &countingMetric{Metric: testMatrix()}}, dbSize: dbSize}
	heap, _ := handClass(counting, cl.vOff, cl.numE, cl.perms, cl.keys, cl.runs)
	counting.RangeQueryInto(QueryFragment{Class: heap, Key: []uint64{9, 0, 0}}, 0.5, &pl, &rb, nil)
	if calls := counting.opts.Metric.(*countingMetric).calls; calls > 10 {
		t.Fatalf("%d positions priced over 301 entries of which 300 share a prefix already over σ", calls)
	}
}

// countingMetric counts the edge costs it is asked for.
type countingMetric struct {
	distance.Metric
	calls int
}

func (m *countingMetric) EdgeCost(a graph.ELabel, wa float64, b graph.ELabel, wb float64) float64 {
	m.calls++
	return m.Metric.EdgeCost(a, wa, b, wb)
}

// sealed lays out st as a class of keyLen positions and reads every entry
// back: its key and its run.
func sealed(st *staging, keyLen int, weights bool) (keys [][]uint64, runs [][]int32) {
	es, _ := st.seal(entries{keyLen: keyLen, width: keyWidth(weights)})
	c := &Class{ents: es}
	c.eachEntry(func(key []uint64, ids []int32) {
		keys, runs = append(keys, slices.Clone(key)), append(runs, slices.Clone(ids))
	})
	return keys, runs
}

// TestSealSortsAndMerges: whatever order keys and ids were folded in, the
// sealed entries hold each key once, ascending, with an ascending run.
func TestSealSortsAndMerges(t *testing.T) {
	var st staging
	st.fold([]uint64{2, 1}, 5)
	st.fold([]uint64{1, 9}, 7, 3, 3)
	st.fold([]uint64{2, 1}, 5, 2)
	st.fold([]uint64{1, 9}, 8)
	keys, runs := sealed(&st, 2, false)
	if len(keys) != 2 || !slices.Equal(slices.Concat(keys...), []uint64{1, 9, 2, 1}) {
		t.Fatalf("keys %v", keys)
	}
	if !slices.Equal(runs[0], []int32{3, 7, 8}) || !slices.Equal(runs[1], []int32{2, 5}) {
		t.Fatalf("runs %v %v", runs[0], runs[1])
	}
	// Weight keys order numerically, not by their bits.
	var wt staging
	for _, w := range []float64{0.5, -2, -0.25, 3} {
		wt.fold([]uint64{math.Float64bits(w)}, 1)
	}
	keys, _ = sealed(&wt, 1, true)
	got := make([]float64, len(keys))
	for e := range got {
		got[e] = math.Float64frombits(keys[e][0])
	}
	if !slices.Equal(got, []float64{-2, -0.25, 0.5, 3}) {
		t.Fatalf("weight keys sealed as %v", got)
	}
}

// parentImageDB is the corpus the images under testdata/images, and the
// label images of the FuzzIndexLoad corpus, were built over (with features
// mined by mining.Options{MaxEdges: 3, MinEdges: 1, MinSupportFraction:
// 0.2}).
func parentImageDB() []*graph.Graph {
	return chem.Generate(12, chem.Config{Seed: 3, Weighted: true})
}

// parentImage returns the bytes of an image over parentImageDB and a file
// holding them: a file under testdata/images, or the image of a
// FuzzIndexLoad corpus entry ("fuzz/<name>"), written to a temporary file.
func parentImage(t *testing.T, file string) (data []byte, path string) {
	t.Helper()
	name, corpus := strings.CutPrefix(file, "fuzz/")
	if !corpus {
		path = filepath.Join("testdata", "images", file)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data, path
	}
	entry, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzIndexLoad", name))
	if err != nil {
		t.Fatal(err)
	}
	// The entry's second line is the image as a Go []byte literal.
	lines := strings.Split(string(entry), "\n")
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), name+".pisidx3")
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
	return []byte(s), path
}

// checkNoSection fails unless image is in this version's layout: the
// header's fingerprint-section flag is 0 and the slab starts at the first
// aligned offset after the directory, with nothing between the two but
// padding.
func checkNoSection(t *testing.T, image []byte) {
	t.Helper()
	sections, slabOff := v3Sections(t, image)
	dirEnd := sections[1][1] + 4 // past the directory's CRC
	if flag := image[sections[0][1]-17]; flag != 0 || slabOff != (dirEnd+v3SlabAlign-1)/v3SlabAlign*v3SlabAlign {
		t.Fatalf("fingerprint-section flag %d, slab at %d after a directory ending at %d", flag, slabOff, dirEnd)
	}
}

// TestParentImagesOpen: one image per kind byte, written by the last
// commit that had a trie (0), an R-tree (1) and a VP-tree (2) per class,
// and by the last commit that stored per-graph fingerprints in the image
// (3 and 4, and the label images of the FuzzIndexLoad corpus), opens on
// the heap and mapped and, once paired with its graphs, answers range
// queries as branch-and-bound isomorphism over the graphs does, holds the
// fingerprints of those graphs, and saves without a fingerprint section;
// opened with a metric of the other key type it is an error. The corpus's
// kind 5 image (seed-labels-kind5), written by this version, is held to
// the same. Of a kind 3
// or 4 image, whose posting blocks are never read, every class's bitmap,
// which Pair reads off the entry runs, holds the graphs of the class's
// posting block.
func TestParentImagesOpen(t *testing.T) {
	db := parentImageDB()
	for _, tc := range []struct {
		file          string
		metric, wrong distance.Metric
		sigmas        []float64
	}{
		{"kind0-labels.pisidx3", distance.EdgeMutation{}, distance.Linear{}, []float64{0, 1, 2}},
		{"kind0-labels-full.pisidx3", distance.FullMutation{}, distance.Linear{IncludeVertices: true}, []float64{0, 1, 2}},
		{"kind1-weights.pisidx3", distance.Linear{}, distance.EdgeMutation{}, []float64{0, 0.05, 0.3}},
		{"kind2-labels.pisidx3", distance.EdgeMutation{}, distance.Linear{}, []float64{0, 1, 2}},
		{"kind3-labels.pisidx3", distance.EdgeMutation{}, distance.Linear{}, []float64{0, 1, 2}},
		{"kind4-weights.pisidx3", distance.Linear{}, distance.EdgeMutation{}, []float64{0, 0.05, 0.3}},
		{"fuzz/seed-labels", distance.EdgeMutation{}, distance.Linear{}, []float64{0, 1, 2}},
		{"fuzz/seed-labels-full", distance.FullMutation{}, distance.Linear{IncludeVertices: true}, []float64{0, 1, 2}},
		{"fuzz/seed-labels-kind5", distance.EdgeMutation{}, distance.Linear{}, []float64{0, 1, 2}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data, path := parentImage(t, tc.file)
			if _, err := LoadBytes(data, tc.wrong); err == nil {
				t.Errorf("Load with %T: answers from keys of the wrong type", tc.wrong)
			}
			if mx, err := OpenMapped(path, tc.wrong); err == nil {
				mx.Close()
				t.Errorf("OpenMapped with %T: answers from keys of the wrong type", tc.wrong)
			}
			hx, err := LoadBytes(data, tc.metric)
			if err != nil {
				t.Fatal(err)
			}
			mx, err := OpenMapped(path, tc.metric)
			if err != nil {
				t.Fatal(err)
			}
			defer mx.Close()
			if hx.Fingerprint() != graph.Fingerprint(db) || hx.DBSize() != len(db) {
				t.Fatal("the image is not over parentImageDB")
			}
			// Kinds 3 and up open their entry blocks; older ones wait for
			// Pair to rebuild their classes from the graphs.
			raw := readRaw(t, data)
			for _, x := range []*Index{hx, mx} {
				if (raw.kind >= kindPostedLabels) != (x.image == nil && x.Stats().Fragments > 0) {
					t.Fatalf("mapped=%v: a kind %d image opened with %d stored pairs before Pair", x.mapping != nil, raw.kind, x.Stats().Fragments)
				}
			}
			for _, x := range []*Index{hx, mx} {
				if err := x.Pair(db); err != nil {
					t.Fatal(err)
				}
				resaved, _ := imageBytes(t, x)
				checkNoSection(t, resaved)
			}
			if raw.kind == kindPostedLabels || raw.kind == kindPostedWeights {
				for _, x := range []*Index{hx, mx} {
					for i, c := range x.Classes() {
						want := blockGraphs(raw.dir[i].postings)
						if got := x.Candidates(nil, []*Class{c}, nil); len(want) == 0 || !slices.Equal(got, want) {
							t.Fatalf("mapped=%v class %d: bitmap %v, posting block %v", x.mapping != nil, i, got, want)
						}
					}
				}
			}
			// These directories record fragment occurrences; both readers
			// count the pairs the entries hold instead.
			if hs, ms := hx.Stats(), mx.Stats(); hs != ms {
				t.Fatalf("stats by residency: heap %+v mapped %+v", hs, ms)
			}
			compared := 0
			for _, x := range []*Index{hx, mx} {
				for _, q := range db[:4] {
					qfs := x.QueryFragments(q)
					for i := 0; i < len(qfs); i += 1 + len(qfs)/6 {
						for _, sigma := range tc.sigmas {
							want := rangeOracle(qfs[i], q, db, tc.metric, sigma)
							got := x.RangeQuery(qfs[i], sigma)
							if len(got) != len(want) {
								t.Fatalf("mapped=%v σ=%v: %d graphs, oracle %d", x.mapping != nil, sigma, len(got), len(want))
							}
							for id, d := range want {
								if diff := got[id] - d; diff > 1e-9 || diff < -1e-9 {
									t.Fatalf("mapped=%v σ=%v: graph %d at %v, oracle %v", x.mapping != nil, sigma, id, got[id], d)
								}
							}
							compared += len(want)
						}
					}
				}
			}
			if compared < 50 {
				t.Fatalf("only %d answers compared", compared)
			}
		})
	}
}
