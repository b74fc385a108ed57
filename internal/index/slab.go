// The class store: how a class keeps the keys of its fragments and how a
// σ range query probes them. Everything that depends on that decision —
// key layout, the build fold, the entry block of the image, and the one
// scan over it — is in this file.
//
// The paper (§4, Figure 5) answers the range query inside a class with "a
// trie, an R-tree or a metric-based index", and the repository carried all
// three until a flat scan over the same entries beat each of them at the
// class sizes a fragment index has (a few hundred distinct keys; the
// table is in docs/ARCHITECTURE.md). What is left is one sorted entry
// block and one scan that keeps the trie's pruning — a stored key is
// abandoned at the first position where every superposition is over σ,
// and entries sharing that prefix are skipped — without the trie's nodes.
// The block is the image's bytes: a heap index holds them in memory, a
// mapped one in the mapping, and the scan reads either.
//
// A key is the fragment's labels along the class code's vertex and edge
// order, or its weights when the metric reads weights. In flight one
// uint64 per position holds either (a label value, or the bits of a
// float64); the block stores a label in 2 bytes and a weight in 8.

package index

import (
	"encoding/binary"
	"math"
	"slices"

	"pis/internal/distance"
	"pis/internal/graph"
)

// entries is one class's stored entries in the image's layout, on the heap
// or in a mapping alike: fixed-length keys in ascending order, each
// distinct, each with the ascending run of the graph ids that contain a
// fragment with that key. The entry block is four columns, back to back:
//
//	ids   every entry's id run: its first id, then the gaps, as uvarints
//	keys  every entry's key: keyLen positions of width bytes, little-endian
//	      (2 for a label, 8 for the bits of a weight)
//	lcp   per entry, how many leading positions its key shares with the one
//	      before, capped at 255: what lets the scan pass over a run of
//	      entries at a byte each
//	ends  per entry, the little-endian uint32 offset in ids where its run
//	      ends
//
// Only the id column varies in width, so the other three are located from
// the block's end by the entry count.
type entries struct {
	ids, keys, lcp, ends []byte
	keyLen, width        int
}

// keyWidth is the bytes a key position takes.
func keyWidth(weights bool) int {
	if weights {
		return 8
	}
	return 2
}

func (x *Index) newEntries(c *Class) entries {
	return entries{keyLen: c.SeqLen(), width: keyWidth(x.weights)}
}

func (es *entries) n() int { return len(es.lcp) }

// size is the bytes of the entry block.
func (es *entries) size() int { return len(es.ids) + len(es.keys) + len(es.lcp) + len(es.ends) }

// row is entry e's key as stored.
func (es *entries) row(e int) []byte {
	w := es.keyLen * es.width
	return es.keys[e*w : (e+1)*w]
}

// key decodes entry e's key into dst.
func (es *entries) key(dst []uint64, e int) {
	row := es.row(e)
	for i := range dst {
		if es.width == 8 {
			dst[i] = binary.LittleEndian.Uint64(row[8*i:])
		} else {
			dst[i] = uint64(binary.LittleEndian.Uint16(row[2*i:]))
		}
	}
}

// end is the offset in ids where entry e's run ends.
func (es *entries) end(e int) int { return int(binary.LittleEndian.Uint32(es.ends[4*e:])) }

// run is entry e's id run, encoded.
func (es *entries) run(e int) []byte {
	start := 0
	if e > 0 {
		start = es.end(e - 1)
	}
	return es.ids[start:es.end(e)]
}

// add appends an entry after the last: its key (a sealed block sorts
// them) and the length of its encoded id run, which the caller has put
// after the last's in the id column.
func (es *entries) add(key []uint64, runLen int) {
	for _, k := range key {
		if es.width == 8 {
			es.keys = binary.LittleEndian.AppendUint64(es.keys, k)
		} else {
			es.keys = binary.LittleEndian.AppendUint16(es.keys, uint16(k))
		}
	}
	shared, end := 0, runLen
	if e := es.n(); e > 0 {
		shared, end = es.commonPrefix(e), end+es.end(e-1)
	}
	es.lcp = append(es.lcp, uint8(shared))
	es.ends = binary.LittleEndian.AppendUint32(es.ends, uint32(end))
}

// commonPrefix is how many leading positions entry e's key shares with
// entry e-1's, capped at 255: its lcp byte.
func (es *entries) commonPrefix(e int) int {
	a, b, w := es.row(e-1), es.row(e), es.width
	n := 0
	for n < es.keyLen && n < math.MaxUint8 && string(a[n*w:(n+1)*w]) == string(b[n*w:(n+1)*w]) {
		n++
	}
	return n
}

// splitEntries finds the columns of an n-entry block, or reports that the
// block is too short to hold them.
func splitEntries(b []byte, n int, es entries) (entries, bool) {
	row := es.keyLen * es.width
	if n > len(b) || row > 0 && n > len(b)/row || n*(row+5) > len(b) {
		return es, false
	}
	ends := len(b) - 4*n
	lcp := ends - n
	keys := lcp - n*row
	es.ids, es.keys, es.lcp, es.ends = b[:keys], b[keys:lcp], b[lcp:ends], b[ends:]
	return es, true
}

// appendIDs appends an ascending id list as the image encodes it: the
// first id, then the gaps, as uvarints.
func appendIDs(b []byte, ids []int32) []byte {
	prev := int32(0)
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(uint32(id-prev)))
		prev = id
	}
	return b
}

// staging collects a class's entries in arrival order while an index is
// built or rebased. Folding as they arrive keeps one id run
// per distinct key; one key per fragment occurrence would hold hundreds of
// copies.
type staging struct {
	at   map[string]int // key bytes → entry
	keys []uint64
	runs [][]int32
	buf  []byte
}

// fold records that the graphs ids contain a fragment with this key. A
// build folds graph after graph, so a repeat within one graph is the
// run's last id; each repairs any other order.
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

// each calls fn with every staged entry in key order, its run ascending
// and distinct. Keys compare position by position, numerically when they
// hold weights.
func (st *staging) each(keyLen int, weights bool, fn func(key []uint64, run []int32)) {
	key := func(e int) []uint64 { return st.keys[e*keyLen : (e+1)*keyLen] }
	order := make([]int, len(st.runs))
	for e := range order {
		order[e] = e
	}
	slices.SortFunc(order, func(a, b int) int { return compareKeys(key(a), key(b), weights) })
	for _, e := range order {
		run := st.runs[e] // ascending already unless a rebase says otherwise
		slices.Sort(run)
		fn(key(e), slices.Compact(run))
	}
}

// seal lays out the staged entries as one entry block, returning them
// with the count of stored (key, graph) pairs.
func (st *staging) seal(es entries) (_ entries, fragments int) {
	st.each(es.keyLen, es.width == 8, func(key []uint64, run []int32) {
		n := len(es.ids)
		es.ids = appendIDs(es.ids, run)
		es.add(key, len(es.ids)-n)
		fragments += len(run)
	})
	block := slices.Concat(es.ids, es.keys, es.lcp, es.ends)
	es, _ = splitEntries(block, es.n(), es)
	return es, fragments
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
	recs, ew := graph.Records(host)
	for _, he := range edges {
		if x.weights {
			dst = append(dst, math.Float64bits(graph.WeightAt(ew, int(he))))
		} else {
			dst = append(dst, uint64(recs[he].Label))
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
	x      *Index
	c      *Class
	probes []uint64 // per automorphism: the probe laid out along it
	keyLen int
	sigma  float64
	wide   bool // keys are stored 8 bytes a position, not 2

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
	if cap(rb.probes) < P*L {
		rb.probes = make([]uint64, P*L)
	}
	s := scan{x: x, c: c, probes: rb.probes[:P*L], keyLen: L, sigma: sigma, wide: x.weights, skipAt: L + 1,
		priced: rb.priced[:P], sums: rb.sums[:P*(L+1)]}
	for p, perm := range c.perms {
		s.priced[p] = 0
		s.sums[p*(L+1)] = 0
		for i, src := range perm {
			s.probes[p*L+i] = qf.Key[src]
		}
	}
	if !(0 <= sigma) {
		s.skipAt = 0 // the empty prefix is already over a negative σ
	}
	return s
}

// price returns the minimum distance over every automorphism between the
// probe and the entry stored under the key row holds, as the entry block
// lays it out, and whether it is within σ. lcp is a prefix length the key
// is known to share with the entry priced last (any lower bound is
// correct), below skipAt. An automorphism stops summing once it is over σ
// or cannot beat the best so far, so a position is read only when priced.
func (s *scan) price(row []byte, lcp int) (best float64, within bool) {
	L, sigma, wide := s.keyLen, s.sigma, s.wide
	best = distance.Infinite
	dead, allDead := 0, true
	for p := range s.priced {
		probe := s.probes[p*L:][:L]
		sums := s.sums[p*(L+1):][:L+1]
		n := min(s.priced[p], lcp)
		d := sums[n]
		for n < L && d <= sigma && d < best {
			var b uint64
			if wide {
				b = binary.LittleEndian.Uint64(row[8*n:])
			} else {
				b = uint64(binary.LittleEndian.Uint16(row[2*n:]))
			}
			if a := probe[n]; a != b {
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

// scanRange records every graph holding a fragment of qf's class within
// sigma of it, at the minimum distance. An entry whose key shares with the
// one priced last a prefix already over σ costs its lcp byte; any other is
// priced from its key row, and its id run decoded only when it is within
// σ.
func (x *Index) scanRange(qf QueryFragment, sigma float64, rb *RangeBuffer) {
	es := &qf.Class.ents
	s := newScan(x, qf, sigma, rb)
	L := es.keyLen
	shared := 0 // with the entry priced last: the least lcp since
	for e, lcp := range es.lcp {
		if shared = min(shared, int(lcp)); shared >= s.skipAt {
			continue
		}
		if d, ok := s.price(es.row(e), shared); ok {
			rb.recordRun(es.run(e), d)
		}
		shared = L
	}
}

// eachEntry calls fn with the key and ascending id run of every entry c
// stores. Both slices are fn's only until it returns.
func (c *Class) eachEntry(fn func(key []uint64, ids []int32)) {
	es := &c.ents
	key := make([]uint64, es.keyLen)
	var ids []int32
	for e := 0; e < es.n(); e++ {
		es.key(key, e)
		cur := blockCursor{b: es.run(e)}
		ids = cur.idList(ids[:0])
		fn(key, ids)
	}
}
