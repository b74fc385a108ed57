// Index persistence. The expensive part of PIS is finding and keying
// every database fragment; Save captures the result so a
// process restart costs a read (Load) or a memory mapping (OpenMapped)
// instead of a rebuild.
//
// There is one byte format, the PISIDX3 image, and one reader: Load reads
// the image into memory and OpenMapped maps it, and both then hold the
// classes' blocks as the image lays them out — only where those bytes live
// differs. The file is two regions:
//
//	"PISIDX3\n"
//	header section     entry kind, vertex-blindness, maxFragmentEdges, dbSize,
//	                   db fingerprint, class count, a retired width (0),
//	                   a retired fingerprint-section flag (0), slab offset +
//	                   length
//	directory section  per class: canonical code, vOff, five retired slots
//	                   (stored pairs; a posting block's count, offset,
//	                   length and CRC), entry count/offset/length/CRC,
//	                   retired planner stats
//	zero padding       to the page-aligned slab offset
//	slab               per class: its entry block
//
// Everything above the slab is small and decoded onto the heap (the
// "directory"); the slab — the stored entries, the part that grows with
// the database — is read in place by the range query, on the heap or
// through the mapping. Every section and every per-class slab
// block carries its own CRC32, so a reader names exactly what is corrupted
// or truncated, in the same spirit as the store's WAL frames. The header
// embeds the fingerprint of the exact graph set the index was built over,
// so pairing an index with a different database fails loudly instead of
// silently returning wrong answers. The metric itself is not serialized —
// the caller supplies an equivalent one to the reader — but its
// vertex-blindness and whether it reads labels or weights are recorded and
// checked, since both change the stored key layout. What a reader can
// derive is not stored: automorphism permutations, the pair counts and
// the planner stats are rebuilt by the reader, a class's graph set is read
// off its entries' id runs at Pair, and the per-graph prescreen
// fingerprints are carried by the graphs themselves (graph.FP). The
// directory keeps its retired slots so every kind has one layout; this
// version writes 0 there and never reads them. Images of earlier versions
// carry the fingerprints in a section between the directory and the
// padding, with the header's flag at 1; the reader finds the slab by its
// offset and never reads that section.
//
// An entry block (offsets in the directory are relative to the slab) is
// the id runs — each its first graph id, then the gaps, as uvarints — then
// the keys (2 bytes a position for label kinds, 8 for weight kinds), one
// lcp byte per entry and one uint32 run end per entry (slab.go).
//
// Entries are sorted (label keys lexicographically, weight keys
// numerically), so every build over the same graphs lays out identical
// blocks.
//
// An image may come from outside the process (a copied store, a side
// file a cluster peer ships), and a CRC is no defence against a crafted
// one. The reader therefore bounds every count by the bytes that could
// hold it before allocating, checks every class code is the canonical
// code of a simple connected graph, and walks every block once to prove
// its ids lie inside the database and its lcp bytes are its keys' — so a
// bad image is an error at open, never an out-of-memory kill, an
// out-of-range index or a wrong answer at query time.

package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"

	"pis/internal/binio"
	"pis/internal/canon"
	"pis/internal/distance"
	"pis/internal/fsys"
	"pis/internal/graph"
	"pis/internal/mmapio"
)

// persistMagic leads the image; 8 bytes, checked verbatim.
const persistMagic = "PISIDX3\n"

// The header's kind byte names the entry layout. Kinds 5 (label keys) and
// 6 (weight keys) are this version's: a class is its entry block alone.
// Kinds 3 and 4 lay out the same entry blocks, each followed in the slab by
// a posting block repeating the graphs of the block's id runs; they open
// as 5 and 6 do, and their posting blocks are never read. Kinds 0 to 2 are
// the layouts of the per-class structures the repository once chose
// between (trie, R-tree, VP-tree; kind 1 held weights): of such an image
// only the header and directory are read, its classes open empty, and Pair
// rebuilds them from the graphs. Readers that trust posting blocks refuse
// kinds 5 and 6 as unknown instead of pairing empty graph sets.
const (
	kindOldWeights    = 1
	kindPostedLabels  = 3
	kindPostedWeights = 4
	kindLabels        = 5
	kindWeights       = 6
)

// v3SlabAlign page-aligns the slab so mapped block reads never straddle
// the header region and the kernel can fault slab pages independently.
const v3SlabAlign = 4096

// v3Header carries the decoded header section.
type v3Header struct {
	kind        byte
	vertexBlind bool
	maxEdges    int
	dbSize      int
	fingerprint uint64
	nClasses    int
	slabOff     uint64
	slabLen     uint64
}

// v3DirClass is one decoded (or staged) directory entry, less its retired
// slots.
type v3DirClass struct {
	code     canon.Code
	vOff     int
	entCount int
	entOff   uint64
	entLen   uint64
	entCRC   uint32
}

// v3DirClassMinBytes is the smallest directory entry: seven one-byte
// uvarints, the statsHistBuckets histogram, and the two fixed-width
// offset/length/CRC triples. It bounds the header's class count.
const v3DirClassMinBytes = 7 + statsHistBuckets + 2*(8+8+4)

// Save writes the index to w as a PISIDX3 image: the class blocks it
// holds, heap or mapped alike, behind a directory encoded here. An index
// opened from an older layout and not yet paired writes back the image it
// was opened from.
func (x *Index) Save(w io.Writer) error {
	if x.image != nil {
		_, err := w.Write(x.image)
		return err
	}
	var slab []byte
	dir := make([]v3DirClass, len(x.list))
	for i, c := range x.list {
		off := len(slab)
		for _, col := range [][]byte{c.ents.ids, c.ents.keys, c.ents.lcp, c.ents.ends} {
			slab = append(slab, col...)
		}
		dir[i] = v3DirClass{code: c.Code, vOff: c.vOff, entCount: c.ents.n(),
			entOff: uint64(off), entLen: uint64(len(slab) - off), entCRC: crc32.ChecksumIEEE(slab[off:])}
	}
	kind := byte(kindLabels)
	if x.weights {
		kind = kindWeights
	}
	hdr := v3Header{kind: kind, vertexBlind: distance.IgnoresVertices(x.opts.Metric), maxEdges: x.opts.MaxFragmentEdges,
		dbSize: x.dbSize, fingerprint: x.fingerprint, nClasses: len(x.list), slabLen: uint64(len(slab))}
	return writeV3Image(w, hdr, dir, slab)
}

// WriteMapped saves the index to path atomically and durably, ready for
// OpenMapped (zero-copy) or Load (heap).
func (x *Index) WriteMapped(path string) error {
	return fsys.WriteFileAtomic(fsys.OS, filepath.Dir(path), filepath.Base(path), x.Save)
}

// writeV3Image assembles the image: magic, header, directory, padding,
// slab. hdr.slabOff is computed here; hdr.slabLen must be set by the
// caller.
func writeV3Image(w io.Writer, hdr v3Header, dir []v3DirClass, slab []byte) error {
	encodeHeader := func(h v3Header) []byte {
		var buf bytes.Buffer
		sw := binio.NewSectionWriter(&buf)
		sw.Begin()
		sw.U8(h.kind)
		vb := byte(0)
		if h.vertexBlind {
			vb = 1
		}
		sw.U8(vb)
		sw.Uvarint(uint64(h.maxEdges))
		sw.Uvarint(uint64(h.dbSize))
		sw.U64(h.fingerprint)
		sw.Uvarint(uint64(h.nClasses))
		sw.Uvarint(0) // retired: the class signature width of older images
		sw.U8(0)      // retired: older images flag a fingerprint section
		sw.U64(h.slabOff)
		sw.U64(h.slabLen)
		if err := sw.Flush(); err != nil {
			panic(err) // bytes.Buffer never errors
		}
		return buf.Bytes()
	}

	var dirBuf bytes.Buffer
	dsw := binio.NewSectionWriter(&dirBuf)
	dsw.Begin()
	for _, dc := range dir {
		dsw.Uvarint(uint64(len(dc.code)))
		for _, t := range dc.code {
			dsw.Varint(int64(t.I))
			dsw.Varint(int64(t.J))
			dsw.Uvarint(uint64(t.LI))
			dsw.Uvarint(uint64(t.LE))
			dsw.Uvarint(uint64(t.LJ))
		}
		dsw.Uvarint(uint64(dc.vOff))
		dsw.Uvarint(0) // retired: stored pairs
		dsw.Uvarint(0) // retired: a posting block's count, offset, length, CRC
		dsw.U64(0)
		dsw.U64(0)
		dsw.U32(0)
		dsw.Uvarint(uint64(dc.entCount))
		dsw.U64(dc.entOff)
		dsw.U64(dc.entLen)
		dsw.U32(dc.entCRC)
		for range 2 + statsHistBuckets {
			dsw.Uvarint(0) // retired: planner stats
		}
	}
	if err := dsw.Flush(); err != nil {
		return err
	}

	// The header's length does not depend on slabOff (fixed-width u64),
	// so one dry encode fixes the layout and a second fills it in.
	preSlab := len(persistMagic) + len(encodeHeader(hdr)) + dirBuf.Len()
	hdr.slabOff = (uint64(preSlab) + v3SlabAlign - 1) / v3SlabAlign * v3SlabAlign

	for _, b := range [][]byte{[]byte(persistMagic), encodeHeader(hdr), dirBuf.Bytes()} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	if _, err := w.Write(make([]byte, int(hdr.slabOff)-preSlab)); err != nil {
		return err
	}
	_, err := w.Write(slab)
	return err
}

// parseV3Meta decodes the header and directory sections of an image,
// without touching the slab or a fingerprint section an older image
// carries after the directory. Every count is bounded by the bytes that
// could hold it before anything is allocated from it. Errors name the
// section.
func parseV3Meta(data []byte, metric distance.Metric) (v3Header, []v3DirClass, error) {
	var hdr v3Header
	fail := func(format string, args ...any) (v3Header, []v3DirClass, error) {
		return hdr, nil, fmt.Errorf("index: "+format, args...)
	}
	if len(data) < len(persistMagic) || string(data[:len(persistMagic)]) != persistMagic {
		return fail("not a PISIDX3 image")
	}
	sr := binio.NewSectionReader(bytes.NewReader(data[len(persistMagic):]))
	if err := sr.Next(); err != nil {
		return fail("mapped header: %w", err)
	}
	hdr.kind = sr.U8()
	hdr.vertexBlind = sr.U8() != 0
	maxEdges, dbSize := sr.Uvarint(), sr.Uvarint()
	hdr.fingerprint = sr.U64()
	nClasses, retired := sr.Uvarint(), sr.Uvarint()
	sr.U8() // the fingerprint-section flag: the section is never read
	hdr.slabOff = sr.U64()
	hdr.slabLen = sr.U64()
	if err := sr.Err(); err != nil {
		return fail("mapped header: %w", err)
	}
	if hdr.vertexBlind != distance.IgnoresVertices(metric) {
		return fail("metric vertex-blindness disagrees with the saved index")
	}
	if hdr.kind > kindWeights {
		return fail("mapped header: unknown kind %d", hdr.kind)
	}
	weights := hdr.kind == kindOldWeights || hdr.kind == kindPostedWeights || hdr.kind == kindWeights
	if weights != distance.ReadsWeights(metric) {
		return fail("metric reads labels where the saved index stores weights, or the reverse")
	}
	if hdr.kind >= kindPostedLabels && retired != 0 {
		return fail("mapped header: signature width %d in a layout that has none", retired)
	}
	// Graph ids are int32 and every later count is bounded against a
	// section's bytes, so nothing legitimate exceeds MaxInt32.
	for _, v := range []uint64{maxEdges, dbSize, nClasses} {
		if v > math.MaxInt32 {
			return fail("mapped header: count %d out of range", v)
		}
	}
	hdr.maxEdges, hdr.dbSize, hdr.nClasses = int(maxEdges), int(dbSize), int(nClasses)

	if err := sr.Next(); err != nil {
		if err == io.EOF {
			return fail("mapped directory: missing (file truncated at the section boundary)")
		}
		return fail("mapped directory: %w", err)
	}
	if hdr.nClasses > sr.Remaining()/v3DirClassMinBytes {
		return fail("mapped directory: header claims %d classes, the %d-byte section cannot hold them", hdr.nClasses, sr.Remaining())
	}
	dir := make([]v3DirClass, 0, hdr.nClasses)
	for ci := 0; ci < hdr.nClasses; ci++ {
		var dc v3DirClass
		codeLen := sr.Count(5, "code")
		dc.code = make(canon.Code, codeLen)
		for i := range dc.code {
			dc.code[i] = canon.Tuple{
				I:  int32(sr.Varint()),
				J:  int32(sr.Varint()),
				LI: graph.VLabel(sr.Uvarint()),
				LE: graph.ELabel(sr.Uvarint()),
				LJ: graph.VLabel(sr.Uvarint()),
			}
		}
		dc.vOff = int(sr.Uvarint())
		// Retired: stored pairs, which checkBlocks counts, and a posting
		// block, whose graphs Pair reads off the entry runs.
		sr.Uvarint()
		sr.Uvarint()
		sr.U64()
		sr.U64()
		sr.U32()
		entCount := sr.Uvarint()
		dc.entOff = sr.U64()
		dc.entLen = sr.U64()
		dc.entCRC = sr.U32()
		for range 2 + statsHistBuckets {
			sr.Uvarint() // retired: planner stats, which computeStats computes
		}
		if err := sr.Err(); err != nil {
			return fail("mapped directory: class %d/%d: %w", ci, hdr.nClasses, err)
		}
		// Every stored entry occupies at least one byte of its block.
		if entCount > dc.entLen {
			return fail("mapped directory: class %d/%d: %d entries in a %d-byte block",
				ci, hdr.nClasses, entCount, dc.entLen)
		}
		dc.entCount = int(entCount)
		dir = append(dir, dc)
	}

	return hdr, dir, nil
}

// codeGraph rebuilds the skeleton a directory code describes, rejecting
// anything that is not the DFS code of a simple connected graph — the
// first tuple is (0,1), a forward edge introduces exactly the next
// unseen vertex, a backward edge joins two seen ones, no edge repeats —
// which is the precondition for canon.Code.Graph not to panic.
func codeGraph(code canon.Code) (*graph.Graph, error) {
	if len(code) == 0 {
		return nil, fmt.Errorf("empty code")
	}
	seen := make(map[[2]int32]bool, len(code))
	next := int32(0) // vertices introduced so far
	for k, t := range code {
		ok := false
		switch {
		case k == 0:
			ok = t.I == 0 && t.J == 1
			next = 2
		case t.Forward():
			ok = t.I >= 0 && t.J == next
			next++
		default:
			ok = t.J >= 0 && t.J < t.I && t.I < next
		}
		e := [2]int32{t.I, t.J}
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		if !ok || seen[e] {
			return nil, fmt.Errorf("tuple %d (%d,%d) does not extend a DFS code", k, t.I, t.J)
		}
		seen[e] = true
	}
	return code.Graph(), nil
}

// decodeV3 is the one reader: parse and bound the metadata, scaffold the
// classes, locate and checksum each class's entry block, walk it once
// (checkBlocks) and compute the planner stats. The classes hold their
// blocks in place: in data, or, when heap is set, in copies of their entry
// blocks alone, so the rest of data, the posting blocks of kinds 3 and 4
// among it, can be collected. An image of an older layout keeps data
// whole for Save, and its classes open empty.
func decodeV3(data []byte, metric distance.Metric, heap bool) (*Index, error) {
	hdr, dir, err := parseV3Meta(data, metric)
	if err != nil {
		return nil, err
	}
	if hdr.slabOff+hdr.slabLen < hdr.slabOff || hdr.slabOff+hdr.slabLen > uint64(len(data)) {
		return nil, fmt.Errorf("index: mapped slab: truncated (file %d bytes, slab needs %d)", len(data), hdr.slabOff+hdr.slabLen)
	}
	x := &Index{
		opts: Options{
			Metric:           metric,
			MaxFragmentEdges: hdr.maxEdges,
		},
		weights:     distance.ReadsWeights(metric),
		dbSize:      hdr.dbSize,
		fingerprint: hdr.fingerprint,
	}
	slab := data[hdr.slabOff : hdr.slabOff+hdr.slabLen]
	if hdr.kind < kindPostedLabels {
		x.image = data
	}
	seen := make(map[string]bool, len(dir))
	for i, dc := range dir {
		cg, err := codeGraph(dc.code)
		if err != nil {
			return nil, fmt.Errorf("index: mapped directory: class %d: %w", i, err)
		}
		minCode, embs := canon.MinCode(cg)
		wantVOff := cg.N()
		if hdr.vertexBlind {
			wantVOff = 0
		}
		key := dc.code.Key()
		if minCode.Compare(dc.code) != 0 || seen[key] || dc.vOff != wantVOff {
			return nil, fmt.Errorf("index: mapped directory: class %d: code is not canonical, repeats an earlier class, or stores %d vertex positions where the metric needs %d", i, dc.vOff, wantVOff)
		}
		c := newClass(i, key, dc.code, cg, embs, dc.vOff)
		seen[key] = true
		x.list = append(x.list, c)
		c.ents = x.newEntries(c)
		if x.image != nil {
			continue
		}
		off, end := dc.entOff, dc.entOff+dc.entLen
		if end < off || end > uint64(len(slab)) {
			return nil, fmt.Errorf("index: mapped slab: class %d entry block: truncated (slab %d bytes, block needs %d)", i, len(slab), end)
		}
		b := slab[off:end:end]
		if got := crc32.ChecksumIEEE(b); got != dc.entCRC {
			return nil, fmt.Errorf("index: mapped slab: class %d entry block: checksum mismatch (stored %08x, computed %08x)", i, dc.entCRC, got)
		}
		if heap {
			b = bytes.Clone(b)
		}
		var ok bool
		if c.ents, ok = splitEntries(b, dc.entCount, c.ents); !ok {
			return nil, fmt.Errorf("index: mapped slab: class %d entry block: %d bytes cannot hold %d entries", i, len(b), dc.entCount)
		}
		if !x.checkBlocks(c) {
			return nil, fmt.Errorf("index: mapped slab: class %d entry block: malformed (an id outside the %d-graph database or out of order, a run that does not end where its entry says, or an lcp byte that is not its key's)", i, hdr.dbSize)
		}
	}
	x.plant()
	x.computeStats()
	return x, nil
}

// checkBlocks walks c's checksummed entry block once and proves what a
// CRC cannot: every graph id lies in [0, dbSize), every id run ascends
// strictly, is non-empty and ends where the next begins, and every lcp
// byte is the prefix its key shares with the one before. The walk also
// counts c.fragments.
func (x *Index) checkBlocks(c *Class) bool {
	limit := uint64(x.dbSize)
	es := &c.ents
	prev := 0
	for e := 0; e < es.n(); e++ {
		end, lcp := es.end(e), 0
		if e > 0 {
			lcp = es.commonPrefix(e)
		}
		if end <= prev || end > len(es.ids) || int(es.lcp[e]) != lcp {
			return false
		}
		cur := blockCursor{b: es.ids[prev:end]}
		c.fragments += cur.countIDs(limit)
		if cur.bad {
			return false
		}
		prev = end
	}
	return prev == len(es.ids)
}

// OpenMapped opens an index file through a memory mapping: the directory
// (class keys and offsets) is decoded onto the heap, entry blocks stay in
// the mapping and are read there at query time; Pair adds the class
// bitmaps, on the heap. Every block is checksummed and walked here, so corruption fails at open with
// the damaged section named instead of surfacing as wrong answers later.
// The caller owns the returned index's Close.
func OpenMapped(path string, metric distance.Metric) (*Index, error) {
	if metric == nil {
		return nil, fmt.Errorf("index: Metric is required")
	}
	m, err := mmapio.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: mapping %s: %w", path, err)
	}
	x, err := openV3(m.Data(), metric, m)
	if err != nil {
		m.Close()
		return nil, err
	}
	x.mappedPath = path
	return x, nil
}

// openV3 opens an index over an image in place. mapping may be nil (tests
// feed raw bytes); the index takes ownership when it is not.
func openV3(data []byte, metric distance.Metric, mapping *mmapio.Mapping) (*Index, error) {
	x, err := decodeV3(data, metric, false)
	if err != nil {
		return nil, err
	}
	x.mapping, x.inMapping = mapping, mapping != nil
	return x, nil
}

// LoadBytes decodes an image written by Save or WriteMapped into an
// ordinary heap index. The metric must match the
// one used at build time (at minimum its vertex-blindness and whether it
// reads labels or weights must agree). Callers attach the index to a
// graph set (Pair) only after checking DBSize and Fingerprint against the
// actual graphs. Every entry block is copied out of data, so the index
// holds no reference to it, except that an image of a layout older than
// kind 3 is kept until Pair rebuilds its classes: data must not change
// before then.
func LoadBytes(data []byte, metric distance.Metric) (*Index, error) {
	if metric == nil {
		return nil, fmt.Errorf("index: Metric is required")
	}
	return decodeV3(data, metric, true)
}

// Load is LoadBytes over an image read whole from r.
func Load(r io.Reader, metric distance.Metric) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: reading image: %w", err)
	}
	return LoadBytes(data, metric)
}

// blockCursor decodes one slab block. A malformed stream (impossible
// once checkBlocks has walked the block) sets bad and makes every
// further read a zero-value no-op, so query paths stay panic-free.
type blockCursor struct {
	b   []byte
	pos int
	bad bool
}

func (c *blockCursor) uvarint() uint64 {
	if !c.bad && c.pos < len(c.b) && c.b[c.pos] < 0x80 {
		c.pos++ // one byte: every label, most id gaps
		return uint64(c.b[c.pos-1])
	}
	return c.uvarintLong()
}

func (c *blockCursor) uvarintLong() uint64 {
	if c.bad {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.pos += n
	return v
}

// countIDs walks the rest of the block as delta-coded ids and returns how
// many it holds, setting bad unless they ascend strictly and stay below
// limit.
func (c *blockCursor) countIDs(limit uint64) (n int) {
	id := uint64(0)
	for ; !c.done(); n++ {
		d := c.uvarint()
		if id += d; d >= limit || id >= limit || n > 0 && d == 0 {
			c.bad = true
		}
	}
	return n
}

// idList appends the rest of the block's delta-coded ids to dst.
func (c *blockCursor) idList(dst []int32) []int32 {
	for id := int32(0); !c.done(); {
		if id += int32(c.uvarint()); !c.bad {
			dst = append(dst, id)
		}
	}
	return dst
}

func (c *blockCursor) done() bool { return c.bad || c.pos >= len(c.b) }

// IsMapped reports whether the index was opened through a mapping.
func (x *Index) IsMapped() bool { return x.mapping != nil }

// Close releases the mapping of a mapped index; a heap index is a no-op.
// No query may be in flight or issued afterwards.
func (x *Index) Close() error {
	if x == nil || x.mapping == nil {
		return nil
	}
	err := x.mapping.Close()
	x.mapping = nil
	return err
}
