// The class store: how a class keeps the keys of its fragments and how a
// σ range query probes them. Everything that depends on that decision —
// key layout, the build fold, the scan, the entry encoding of the image
// and the statistics walk — is in this file.
//
// The paper (§4, Figure 5) answers the range query inside a class with "a
// trie, an R-tree or a metric-based index", and the repository carried all
// three until a flat scan over the same entries beat each of them at the
// class sizes a fragment index has (a few hundred distinct keys; the
// table is in docs/ARCHITECTURE.md). What is left is one sorted slab and
// one scan that keeps the trie's pruning — a stored key is abandoned at
// the first position where every superposition is over σ, and entries
// sharing that prefix are skipped — without the trie's nodes.
//
// A key is the fragment's labels along the class code's vertex and edge
// order, or its weights when the metric reads weights; one uint64 per
// position holds either (a label value, or the bits of a float64).

package index

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"pis/internal/distance"
	"pis/internal/graph"
)

// slab is one class's stored entries: fixed-length keys in ascending
// order, each distinct, each with the ascending run of the graph ids that
// contain a fragment with that key.
type slab struct {
	keyLen int
	keys   []uint64 // entry e's key is keys[e*keyLen:(e+1)*keyLen]
	ends   []uint32 // entry e's ids are ids[ends[e-1]:ends[e]]
	ids    []int32
	// lcp[e] is the length of the prefix entry e's key shares with entry
	// e-1's, capped at 255: what lets the scan pass over a run of entries
	// at a byte each.
	lcp []uint8
}

func (s *slab) entries() int { return len(s.ends) }

func (s *slab) key(e int) []uint64 { return s.keys[e*s.keyLen : (e+1)*s.keyLen] }

func (s *slab) run(e int) []int32 {
	start := uint32(0)
	if e > 0 {
		start = s.ends[e-1]
	}
	return s.ids[start:s.ends[e]]
}

// staging collects a class's entries in arrival order while an index is
// built or decoded. Folding as they arrive keeps one id run per distinct
// key; one key per fragment occurrence would hold hundreds of copies.
type staging struct {
	at   map[string]int // key bytes → entry
	keys []uint64
	runs [][]int32
	buf  []byte
}

// fold records that the graphs ids contain a fragment with this key. A
// build folds graph after graph, so a repeat within one graph is the
// run's last id; seal repairs any other order.
func (st *staging) fold(key []uint64, ids ...int32) {
	st.buf = st.buf[:0]
	for _, k := range key {
		st.buf = binary.LittleEndian.AppendUint64(st.buf, k)
	}
	e, ok := st.at[string(st.buf)]
	if !ok {
		if st.at == nil {
			st.at = make(map[string]int)
		}
		e = len(st.runs)
		st.at[string(st.buf)] = e
		st.keys = append(st.keys, key...)
		st.runs = append(st.runs, nil)
	}
	run := st.runs[e]
	for _, id := range ids {
		if n := len(run); n == 0 || run[n-1] != id {
			run = append(run, id)
		}
	}
	st.runs[e] = run
}

// seal sorts the staged entries into a slab. Keys compare position by
// position, numerically when they hold weights.
func (st *staging) seal(keyLen int, weights bool) slab {
	n := len(st.runs)
	key := func(e int) []uint64 { return st.keys[e*keyLen : (e+1)*keyLen] }
	order := make([]int, n)
	total := 0
	for e := range order {
		order[e] = e
		total += len(st.runs[e])
	}
	slices.SortFunc(order, func(a, b int) int { return compareKeys(key(a), key(b), weights) })
	s := slab{
		keyLen: keyLen,
		keys:   make([]uint64, 0, len(st.keys)),
		ends:   make([]uint32, 0, n),
		ids:    make([]int32, 0, total),
		lcp:    make([]uint8, 0, n),
	}
	var prev []uint64
	for _, e := range order {
		run := st.runs[e] // ascending already unless an image says otherwise
		slices.Sort(run)
		run = slices.Compact(run)
		shared := 0
		for shared < len(prev) && shared < math.MaxUint8 && prev[shared] == key(e)[shared] {
			shared++
		}
		prev = key(e)
		s.keys = append(s.keys, prev...)
		s.ids = append(s.ids, run...)
		s.ends = append(s.ends, uint32(len(s.ids)))
		s.lcp = append(s.lcp, uint8(shared))
	}
	return s
}

func compareKeys(a, b []uint64, weights bool) int {
	if !weights {
		return slices.Compare(a, b)
	}
	for i := range a {
		if wa, wb := math.Float64frombits(a[i]), math.Float64frombits(b[i]); wa != wb {
			if wa < wb {
				return -1
			}
			return 1
		}
	}
	return 0
}

// appendKey appends the key of a fragment of class c placed in host: its
// labels, or its weights, read at verts[k], the host vertex of DFS id k,
// and at edges[t], the host edge of code tuple t.
func (x *Index) appendKey(dst []uint64, host *graph.Graph, c *Class, verts, edges []int32) []uint64 {
	for _, v := range verts[:c.vOff] {
		if x.weights {
			dst = append(dst, math.Float64bits(host.VWeightAt(int(v))))
		} else {
			dst = append(dst, uint64(host.VLabelAt(int(v))))
		}
	}
	for _, he := range edges {
		e := host.EdgeAt(int(he))
		if x.weights {
			dst = append(dst, math.Float64bits(e.Weight))
		} else {
			dst = append(dst, uint64(e.Label))
		}
	}
	return dst
}

// appendStoredKey appends the key a database fragment is stored under.
// Label keys are stored as the smallest of their automorphism variants,
// which merges the variants of one fragment into one entry, and so do not
// depend on which embedding placed the fragment; weight keys are stored as
// laid out (continuous weights rarely repeat). A query probes every
// variant, so either is exact.
func (x *Index) appendStoredKey(dst []uint64, host *graph.Graph, c *Class, verts, edges []int32) []uint64 {
	n := len(dst)
	dst = x.appendKey(dst, host, c, verts, edges)
	if x.weights || len(c.perms) == 1 {
		return dst // a lone automorphism is the identity
	}
	L := c.SeqLen()
	dst = append(dst, dst[n:]...) // best so far, then room for a candidate
	dst = append(dst, dst[n:n+L]...)
	key, best, tmp := dst[n:n+L], dst[n+L:n+2*L], dst[n+2*L:]
	for _, perm := range c.perms {
		for i, src := range perm {
			tmp[i] = key[src]
		}
		if slices.Compare(tmp, best) < 0 {
			best, tmp = tmp, best
		}
	}
	copy(key, best)
	return dst[:n+L]
}

// cost prices superimposing query element a on stored element b at key
// position i of class c.
func (x *Index) cost(c *Class, i int, a, b uint64) float64 {
	if a == b {
		return 0 // identical elements are free under every Metric
	}
	m := x.opts.Metric
	if x.weights {
		wa, wb := math.Float64frombits(a), math.Float64frombits(b)
		if i < c.vOff {
			return m.VertexCost(0, wa, 0, wb)
		}
		return m.EdgeCost(0, wa, 0, wb)
	}
	if i < c.vOff {
		return m.VertexCost(graph.VLabel(a), 0, graph.VLabel(b), 0)
	}
	return m.EdgeCost(graph.ELabel(a), 0, graph.ELabel(b), 0)
}

// orbitDistance is the exact fragment distance between two keys: the
// minimum over automorphism variants of the summed position costs.
func (x *Index) orbitDistance(c *Class, a, b []uint64) float64 {
	best := distance.Infinite
	for _, p := range c.perms {
		d := 0.0
		for i, src := range p {
			d += x.cost(c, i, a[src], b[i])
			if d >= best {
				break
			}
		}
		if d < best {
			best = d
		}
	}
	return best
}

// scan is the state of one range query's walk over a class's entries.
// For every automorphism it keeps the prefix sums of the position costs
// against the entry priced last, so the next entry resumes at the first
// position where the two keys differ, and an entry that shares with it a
// prefix already putting every automorphism over σ is passed over without
// being priced. That holds in whatever order entries arrive; sorted order
// is what makes shared prefixes long.
type scan struct {
	x     *Index
	c     *Class
	probe []uint64
	sigma float64

	// skipAt is the prefix length at which every automorphism is over σ
	// (past the key length while one is still within it): an entry
	// sharing that much with the one priced last is out of range.
	skipAt int
	priced []int     // per automorphism: positions summed so far
	sums   []float64 // per automorphism: keyLen+1 prefix sums
}

// newScan starts a scan on rb's scratch.
func newScan(x *Index, qf QueryFragment, sigma float64, rb *RangeBuffer) scan {
	c := qf.Class
	L, P := c.SeqLen(), len(c.perms)
	if cap(rb.priced) < P {
		rb.priced = make([]int, P)
	}
	if cap(rb.sums) < P*(L+1) {
		rb.sums = make([]float64, P*(L+1))
	}
	s := scan{x: x, c: c, probe: qf.Key, sigma: sigma, skipAt: L + 1,
		priced: rb.priced[:P], sums: rb.sums[:P*(L+1)]}
	for p := range s.priced {
		s.priced[p] = 0
		s.sums[p*(L+1)] = 0
	}
	if !(0 <= sigma) {
		s.skipAt = 0 // the empty prefix is already over a negative σ
	}
	return s
}

// price returns the minimum distance over every automorphism between the
// probe and the entry stored under key, and whether it is within σ. lcp
// is a prefix length the key is known to share with the entry priced
// last (any lower bound is correct), below skipAt. An automorphism stops
// summing once it is over σ or cannot beat the best so far.
func (s *scan) price(key []uint64, lcp int) (best float64, within bool) {
	L, sigma, probe := len(key), s.sigma, s.probe
	best = distance.Infinite
	dead, allDead := 0, true
	for p, perm := range s.c.perms {
		sums := s.sums[p*(L+1):][:L+1]
		n := min(s.priced[p], lcp)
		d := sums[n]
		for n < L && d <= sigma && d < best {
			if a, b := probe[perm[n]], key[n]; a != b {
				d += s.x.cost(s.c, n, a, b)
			}
			n++
			sums[n] = d
		}
		s.priced[p] = n
		switch {
		case d > sigma:
			dead = max(dead, n)
		case n == L:
			best, allDead = min(best, d), false
		default:
			allDead = false
		}
	}
	s.skipAt = L + 1
	if allDead {
		s.skipAt = dead
	}
	return best, best != distance.Infinite
}

// scanRange records every live graph holding a fragment of qf's class
// within sigma of it, at the minimum distance. The heap slab and the
// mapped entry block are walked by their own loops; both price an entry
// through scan.price.
func (x *Index) scanRange(qf QueryFragment, sigma float64, rb *RangeBuffer, tombs *Tombstones) {
	c := qf.Class
	s := newScan(x, qf, sigma, rb)
	L := c.SeqLen()
	if !c.mapped {
		ents := &c.ents
		shared := 0 // with the entry priced last: the least lcp since
		for e, lcp := range ents.lcp {
			if shared = min(shared, int(lcp)); shared >= s.skipAt {
				continue
			}
			if d, ok := s.price(ents.key(e), shared); ok {
				for _, id := range ents.run(e) {
					if !tombs.Has(id) {
						rb.record(id, d)
					}
				}
			}
			shared = L
		}
		return
	}
	if cap(rb.key) < L {
		rb.key = make([]uint64, L)
	}
	key := rb.key[:L] // the entry priced last, decoded
	var raw []byte    // and as the block encodes it
	cur := blockCursor{b: c.entBlock}
	for e := 0; e < c.entCount && !cur.done(); e++ {
		// Equal bytes decode to equal positions, so the prefix this entry
		// shares with the one priced last is read off the encoding, as
		// far as it matters.
		start := cur.pos
		shared, at := x.sharedPrefix(cur.b[start:], raw, s.skipAt)
		cur.pos += at
		if shared >= s.skipAt {
			// Out of range like that entry: step over the rest of the
			// key and the id run undecoded.
			x.skipElems(&cur, L-shared)
			cur.skipVarints(int(x.entryIDs(&cur)))
			continue
		}
		x.readKey(&cur, key[shared:])
		if cur.bad {
			return
		}
		raw = cur.b[start:cur.pos]
		n := int(x.entryIDs(&cur))
		d, ok := s.price(key, shared)
		if !ok {
			cur.skipVarints(n)
			continue
		}
		id := int32(0)
		for i := 0; i < n; i++ {
			delta := int32(cur.uvarint())
			if cur.bad {
				return
			}
			if i == 0 {
				id = delta
			} else {
				id += delta
			}
			if !tombs.Has(id) {
				rb.record(id, d)
			}
		}
	}
}

// Entry encoding. A label key is one uvarint per position, a weight key
// one little-endian float64 per position. An entry of a label image ends
// with its id run (uvarint count, first id, gaps); a weight image repeats
// the key once per id, each followed by that id, which is the layout the
// R-tree kind wrote. Images of the VP-tree kind (kind byte 2) hold label
// keys in the one-id-per-entry layout; they are read, never written.

// writeEntry encodes one entry and returns how many the image counts it
// as.
func (x *Index) writeEntry(sw *v3SlabWriter, key []uint64, ids []int32) int {
	if x.weights {
		for _, id := range ids {
			for _, w := range key {
				sw.u64(w)
			}
			sw.uvarint(uint64(uint32(id)))
		}
		return len(ids)
	}
	for _, s := range key {
		sw.uvarint(s)
	}
	sw.uvarint(uint64(len(ids)))
	sw.ids(ids)
	return 1
}

// sharedPrefix returns how many leading key positions two encoded keys
// have in common, counting no further than limit, and how many bytes of a
// those positions take.
func (x *Index) sharedPrefix(a, b []byte, limit int) (elems, size int) {
	n := min(len(a), len(b))
	if x.weights {
		for elems < limit && size+8 <= n && binary.LittleEndian.Uint64(a[size:]) == binary.LittleEndian.Uint64(b[size:]) {
			elems, size = elems+1, size+8
		}
		return elems, size
	}
	for i := 0; elems < limit && i < n && a[i] == b[i]; i++ {
		if a[i] < 0x80 { // the last byte of a uvarint
			elems, size = elems+1, i+1
		}
	}
	return elems, size
}

// readKey decodes a key, or the rest of one, into dst.
func (x *Index) readKey(cur *blockCursor, dst []uint64) {
	if !x.weights {
		for i := range dst {
			dst[i] = cur.uvarint()
		}
		return
	}
	from := cur.pos
	if cur.skip(8 * len(dst)); !cur.bad {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(cur.b[from+8*i:])
		}
	}
}

// skipElems steps over n positions of a key.
func (x *Index) skipElems(cur *blockCursor, n int) {
	if x.weights {
		cur.skip(8 * n)
	} else {
		cur.skipVarints(n)
	}
}

// entryIDs is the id count of the entry the cursor stands in, after its
// key.
func (x *Index) entryIDs(cur *blockCursor) uint64 {
	if x.singleID {
		return 1
	}
	return cur.uvarint()
}

// eachEntry calls fn with the key and ascending id run of every entry c
// stores, wherever it stores them: the sealed slab, or a verified entry
// block (one of the two is empty). A block of one-id entries repeats a key
// once per id. Both slices are fn's only until it returns.
func (x *Index) eachEntry(c *Class, fn func(key []uint64, ids []int32)) {
	for e := 0; e < c.ents.entries(); e++ {
		fn(c.ents.key(e), c.ents.run(e))
	}
	cur := blockCursor{b: c.entBlock}
	key := make([]uint64, c.SeqLen())
	var ids []int32
	for e := 0; e < c.entCount; e++ {
		x.readKey(&cur, key)
		ids = cur.idList(ids[:0], int(x.entryIDs(&cur)))
		fn(key, ids)
	}
}

// entryUnits is how many entries the image counts s as: one per key, or
// one per (key, graph) pair when keys hold weights (writeEntry).
func (x *Index) entryUnits(s *slab) int {
	if x.weights {
		return len(s.ids)
	}
	return s.entries()
}

// sampleKeys returns at most statsSamplePerClass keys spread evenly over
// the class's entries as the image lays them out (a weight key counts
// once per id), with that count.
func (x *Index) sampleKeys(c *Class) (keys [][]uint64, units int) {
	s := &c.ents
	units = x.entryUnits(s)
	for u := 0; u < units && len(keys) < statsSamplePerClass; u += sampleStride(units) {
		e := u
		if x.weights {
			e = sort.Search(s.entries(), func(e int) bool { return int(s.ends[e]) > u })
		}
		keys = append(keys, s.key(e))
	}
	return keys, units
}
