// Index persistence. The expensive part of PIS is finding and keying
// every database fragment; Save captures the result so a
// process restart costs a decode (Load) or a memory mapping (OpenMapped)
// instead of a rebuild.
//
// There is one byte format, the PISIDX3 image, laid out so the same file
// serves both readers — fully decoded onto the heap, or mapped with only
// its directory resident. The file is two regions:
//
//	"PISIDX3\n"
//	header section     entry kind, vertex-blindness, maxFragmentEdges, dbSize,
//	                   db fingerprint, class count, signature words (0; an
//	                   older image's are skipped), fp-section flag, slab
//	                   offset + length
//	directory section  per class: canonical code, vOff, stored (key, graph)
//	                   pairs, posting count/offset/length/CRC, entry
//	                   count/offset/length/CRC, planner stats
//	fingerprints       per-graph prescreen fingerprints (fingerprint.go)
//	zero padding       to the page-aligned slab offset
//	slab               per-class posting + entry blocks, delta+varint
//
// Everything above the slab is small and heap-resident after OpenMapped
// (the "directory"); the slab — posting lists and stored sequences, the
// part that grows with the database — is only ever touched through the
// mapping, decoded block-by-block into pooled scratch by RangeQueryInto.
// Every section and every per-class slab block carries its own CRC32, so
// a reader names exactly what is corrupted or truncated, in the same
// spirit as the store's WAL frames. The header embeds the fingerprint of
// the exact graph set the index was built over, so pairing an index with
// a different database fails loudly instead of silently returning wrong
// answers. The metric itself is not serialized — the caller supplies an
// equivalent one to the reader — but its vertex-blindness and whether it
// reads labels or weights are recorded and checked, since both change the
// stored key layout. Automorphism permutations are cheap to recompute and
// are rebuilt by the reader.
//
// Slab encodings (offsets in the directory are relative to the slab; the
// header's kind byte names the entry encoding, see the constants below
// and slab.go):
//
//	postings block   uvarint first id, then uvarint gaps (ascending ids)
//	kind 0 entry     SeqLen uvarint labels, uvarint id count,
//	                 uvarint first id, uvarint gaps
//	kind 1 entry     SeqLen little-endian float64 weights, uvarint id
//	kind 2 entry     SeqLen uvarint labels, uvarint id
//
// Entries are sorted (label keys lexicographically, weight keys
// numerically, ids ascending within ties), so Save and the chunked
// streaming build lay out identical blocks.
//
// An image may come from outside the process (a copied store, a side
// file a cluster peer ships), and a CRC is no defence against a crafted
// one. The reader therefore bounds every count by the bytes that could
// hold it before allocating, checks every class code is the canonical
// code of a simple connected graph, and walks every block once to prove
// its ids lie inside the database — so a bad image is an error at open,
// never an out-of-memory kill or an out-of-range index at query time.

package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"

	"pis/internal/binio"
	"pis/internal/canon"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/mmapio"
)

// persistMagic leads the image; 8 bytes, checked verbatim.
const persistMagic = "PISIDX3\n"

// fpMagic tags the per-graph fingerprint section ("PISF" little-endian).
const fpMagic = 0x46534950

// The header's kind byte names the entry encoding of the image. The
// values are those of the per-class structures the repository once chose
// between (trie, R-tree, VP-tree), so images written then still open.
const (
	kindLabelRuns   = 0 // label keys, a counted id run per entry
	kindWeights     = 1 // weight keys, one id per entry
	kindLabelSingle = 2 // label keys, one id per entry; read, never written
)

// header is the image header Save and BuildStreaming write for x, over a
// slab of slabLen bytes.
func (x *Index) header(slabLen uint64) v3Header {
	kind := byte(kindLabelRuns)
	if x.weights {
		kind = kindWeights
	}
	return v3Header{kind: kind, vertexBlind: distance.IgnoresVertices(x.opts.Metric), maxEdges: x.opts.MaxFragmentEdges,
		dbSize: x.dbSize, fingerprint: x.fingerprint, nClasses: len(x.list), hasFPs: x.fps != nil, slabLen: slabLen}
}

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
	sigWords    int // 64-bit words of class signature behind each fingerprint record; written as 0
	hasFPs      bool
	slabOff     uint64
	slabLen     uint64
}

// v3DirClass is one decoded (or staged) directory entry.
type v3DirClass struct {
	code      canon.Code
	vOff      int
	fragments int

	postCount int
	postOff   uint64
	postLen   uint64
	postCRC   uint32

	entCount int
	entOff   uint64
	entLen   uint64
	entCRC   uint32

	stats ClassStats
}

// v3DirClassMinBytes is the smallest directory entry: seven one-byte
// uvarints, the statsHistBuckets histogram, and the two fixed-width
// offset/length/CRC triples. It bounds the header's class count.
const v3DirClassMinBytes = 7 + statsHistBuckets + 2*(8+8+4)

// v3SlabWriter accumulates one class's blocks into the slab, tracking
// offset and CRC per block so directory entries can be staged without
// buffering block bytes beyond the writer's own buffering.
type v3SlabWriter struct {
	w   io.Writer
	off uint64
	crc uint32
	buf []byte
	err error
}

func (s *v3SlabWriter) beginBlock() (startOff uint64) { s.crc = 0; return s.off }

func (s *v3SlabWriter) flushBuf() {
	if len(s.buf) == 0 || s.err != nil {
		return
	}
	s.crc = crc32.Update(s.crc, crc32.IEEETable, s.buf)
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
	}
	s.off += uint64(len(s.buf))
	s.buf = s.buf[:0]
}

func (s *v3SlabWriter) uvarint(v uint64) {
	s.buf = binary.AppendUvarint(s.buf, v)
	if len(s.buf) >= 1<<16 {
		s.flushBuf()
	}
}

func (s *v3SlabWriter) u64(v uint64) {
	s.buf = binary.LittleEndian.AppendUint64(s.buf, v)
	if len(s.buf) >= 1<<16 {
		s.flushBuf()
	}
}

// endBlock flushes pending bytes and returns the block's length and CRC.
func (s *v3SlabWriter) endBlock(startOff uint64) (length uint64, crc uint32) {
	s.flushBuf()
	return s.off - startOff, s.crc
}

// ids appends an ascending id list as first + gaps.
func (s *v3SlabWriter) ids(ids []int32) {
	for i, id := range ids {
		if i == 0 {
			s.uvarint(uint64(uint32(id)))
		} else {
			s.uvarint(uint64(uint32(id - ids[i-1])))
		}
	}
}

// Save writes the index to w as a PISIDX3 image. A mapped index streams
// its file image verbatim (the bytes are already its serialization); a
// heap index is encoded here, the one place an Index becomes bytes.
func (x *Index) Save(w io.Writer) error {
	if x.mapping != nil {
		_, err := w.Write(x.mapping.Data())
		return err
	}
	var slab bytes.Buffer
	sw := &v3SlabWriter{w: &slab}
	dir := make([]v3DirClass, 0, len(x.list))
	for _, c := range x.list {
		dc := v3DirClass{
			code:      c.Code,
			vOff:      c.vOff,
			fragments: c.fragments,
			stats:     c.stats,
		}
		// Entries first, postings second, as the streaming build merges
		// them.
		dc.entOff = sw.beginBlock()
		for e := 0; e < c.ents.entries(); e++ {
			dc.entCount += x.writeEntry(sw, c.ents.key(e), c.ents.run(e))
		}
		dc.entLen, dc.entCRC = sw.endBlock(dc.entOff)
		dc.postOff = sw.beginBlock()
		dc.postCount = len(c.postings)
		sw.ids(c.postings)
		dc.postLen, dc.postCRC = sw.endBlock(dc.postOff)
		dir = append(dir, dc)
	}
	if sw.err != nil {
		return sw.err
	}
	hdr := x.header(uint64(slab.Len()))
	var fps []byte
	if hdr.hasFPs {
		fps = fpPreamble(len(x.fps))
		for i := range x.fps {
			fps = appendGraphFP(fps, &x.fps[i])
		}
	}
	return writeV3Image(w, hdr, dir, bytes.NewReader(fps), len(fps), &slab)
}

// WriteMapped saves the index to path atomically and durably, ready for
// OpenMapped (zero-copy) or Load (heap).
func (x *Index) WriteMapped(path string) error { return writeFileAtomic(path, x.Save) }

// writeFileAtomic writes path via a temp file in the same directory:
// content, fsync, rename, directory fsync. Readers see the old file or
// the new one, never a partial write.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op after a successful rename
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// fpPreamble is the fingerprint section's preamble; n appendGraphFP
// records follow. The zero is the width of the per-graph class signature
// images once carried after each record.
func fpPreamble(n int) []byte {
	b := binary.LittleEndian.AppendUint32(nil, fpMagic)
	b = binary.AppendUvarint(b, 0)
	return binary.AppendUvarint(b, uint64(n))
}

// appendGraphFP appends fp's fingerprint record to b: every counter as a
// uvarint.
func appendGraphFP(b []byte, fp *GraphFP) []byte {
	b = binary.AppendUvarint(b, uint64(fp.NV))
	b = binary.AppendUvarint(b, uint64(fp.NE))
	for _, c := range fp.DegTail {
		b = binary.AppendUvarint(b, uint64(c))
	}
	for _, c := range fp.ELab {
		b = binary.AppendUvarint(b, uint64(c))
	}
	for _, c := range fp.VLab {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return b
}

// maxSigWords bounds the signature width a reader steps over.
const maxSigWords = 16

// graphFPMinBytes is the smallest fingerprint record in a section whose
// records each drag words signature words behind them: one byte per
// counter plus the fixed-width signature.
func graphFPMinBytes(words int) int {
	return 2 + fpDegTail + fpEdgeBuckets + fpVertexBuckets + 8*words
}

// writeV3Image assembles the image: magic, header, directory, optional
// fingerprint section, padding, slab. hdr.slabOff is computed here;
// hdr.slabLen must be set by the caller. When hdr.hasFPs, fps yields the
// fpLen payload bytes of the fingerprint section (tens of MB at a million
// graphs), framed straight into w.
func writeV3Image(w io.Writer, hdr v3Header, dir []v3DirClass, fps io.Reader, fpLen int, slab io.Reader) error {
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
		sw.Uvarint(uint64(h.sigWords))
		fb := byte(0)
		if h.hasFPs {
			fb = 1
		}
		sw.U8(fb)
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
		dsw.Uvarint(uint64(dc.fragments))
		dsw.Uvarint(uint64(dc.postCount))
		dsw.U64(dc.postOff)
		dsw.U64(dc.postLen)
		dsw.U32(dc.postCRC)
		dsw.Uvarint(uint64(dc.entCount))
		dsw.U64(dc.entOff)
		dsw.U64(dc.entLen)
		dsw.U32(dc.entCRC)
		dsw.Uvarint(uint64(dc.stats.Sequences))
		dsw.Uvarint(uint64(dc.stats.Pairs))
		for _, h := range dc.stats.Hist {
			dsw.Uvarint(uint64(h))
		}
	}
	if err := dsw.Flush(); err != nil {
		return err
	}

	// The header's length does not depend on slabOff (fixed-width u64),
	// so one dry encode fixes the layout and a second fills it in.
	preSlab := len(persistMagic) + len(encodeHeader(hdr)) + dirBuf.Len()
	if hdr.hasFPs {
		preSlab += 8 + fpLen // the section's length and CRC frame the payload
	}
	hdr.slabOff = (uint64(preSlab) + v3SlabAlign - 1) / v3SlabAlign * v3SlabAlign

	for _, b := range [][]byte{[]byte(persistMagic), encodeHeader(hdr), dirBuf.Bytes()} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	if hdr.hasFPs {
		if err := binio.WriteSection(w, fpLen, fps); err != nil {
			return err
		}
	}
	if _, err := w.Write(make([]byte, int(hdr.slabOff)-preSlab)); err != nil {
		return err
	}
	_, err := io.Copy(w, slab)
	return err
}

// parseV3Meta decodes the header, directory, and fingerprint sections of
// an image, without touching the slab. Every count is bounded by the
// bytes that could hold it before anything is allocated from it. Errors
// name the section.
func parseV3Meta(data []byte, metric distance.Metric) (v3Header, []v3DirClass, []GraphFP, error) {
	var hdr v3Header
	fail := func(format string, args ...any) (v3Header, []v3DirClass, []GraphFP, error) {
		return hdr, nil, nil, fmt.Errorf("index: "+format, args...)
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
	nClasses, sigWords := sr.Uvarint(), sr.Uvarint()
	hdr.hasFPs = sr.U8() != 0
	hdr.slabOff = sr.U64()
	hdr.slabLen = sr.U64()
	if err := sr.Err(); err != nil {
		return fail("mapped header: %w", err)
	}
	if hdr.vertexBlind != distance.IgnoresVertices(metric) {
		return fail("metric vertex-blindness disagrees with the saved index")
	}
	if hdr.kind > kindLabelSingle {
		return fail("mapped header: unknown kind %d", hdr.kind)
	}
	if (hdr.kind == kindWeights) != distance.ReadsWeights(metric) {
		return fail("metric reads labels where the saved index stores weights, or the reverse")
	}
	// Graph ids are int32 and every later count is bounded against a
	// section's bytes, so nothing legitimate exceeds MaxInt32.
	for _, v := range []uint64{maxEdges, dbSize, nClasses, sigWords} {
		if v > math.MaxInt32 {
			return fail("mapped header: count %d out of range", v)
		}
	}
	hdr.maxEdges, hdr.dbSize, hdr.nClasses, hdr.sigWords = int(maxEdges), int(dbSize), int(nClasses), int(sigWords)

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
		dc.fragments = int(sr.Uvarint())
		postCount := sr.Uvarint()
		dc.postOff = sr.U64()
		dc.postLen = sr.U64()
		dc.postCRC = sr.U32()
		entCount := sr.Uvarint()
		dc.entOff = sr.U64()
		dc.entLen = sr.U64()
		dc.entCRC = sr.U32()
		dc.stats.Sequences = int32(sr.Uvarint())
		dc.stats.Pairs = int32(sr.Uvarint())
		for i := range dc.stats.Hist {
			dc.stats.Hist[i] = int32(sr.Uvarint())
		}
		if err := sr.Err(); err != nil {
			return fail("mapped directory: class %d/%d: %w", ci, hdr.nClasses, err)
		}
		// Every posting id and every stored entry occupies at least one
		// byte of its block.
		if postCount > dc.postLen || entCount > dc.entLen {
			return fail("mapped directory: class %d/%d: %d postings in a %d-byte block, %d entries in a %d-byte block",
				ci, hdr.nClasses, postCount, dc.postLen, entCount, dc.entLen)
		}
		dc.postCount, dc.entCount = int(postCount), int(entCount)
		dc.stats.Postings = int32(dc.postCount)
		dir = append(dir, dc)
	}

	var fps []GraphFP
	if hdr.hasFPs {
		var err error
		if fps, err = readFingerprints(sr, hdr); err != nil {
			return fail("mapped fingerprint section: %w", err)
		}
	}
	return hdr, dir, fps, nil
}

// readFingerprints decodes the checksummed fingerprint section.
func readFingerprints(sr *binio.SectionReader, hdr v3Header) ([]GraphFP, error) {
	if err := sr.Next(); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("missing (stream truncated at the section boundary)")
		}
		return nil, err
	}
	if m := sr.U32(); m != fpMagic {
		return nil, fmt.Errorf("bad section magic %08x", m)
	}
	words := int(sr.Uvarint())
	if words < 0 || words > maxSigWords {
		return nil, fmt.Errorf("signature width %d words out of range", words)
	}
	if words != hdr.sigWords {
		return nil, fmt.Errorf("signature width %d disagrees with header %d", words, hdr.sigWords)
	}
	n := sr.Count(graphFPMinBytes(words), "fingerprint")
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if n != hdr.dbSize {
		return nil, fmt.Errorf("covers %d graphs, index has %d", n, hdr.dbSize)
	}
	fps := make([]GraphFP, n)
	for i := range fps {
		fp := &fps[i]
		fp.NV = int32(sr.Uvarint())
		fp.NE = int32(sr.Uvarint())
		for k := range fp.DegTail {
			fp.DegTail[k] = uint16(sr.Uvarint())
		}
		for k := range fp.ELab {
			fp.ELab[k] = uint16(sr.Uvarint())
		}
		for k := range fp.VLab {
			fp.VLab[k] = uint16(sr.Uvarint())
		}
		sr.Bytes(8 * words) // an older image's class signature
	}
	return fps, sr.Err()
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

// decodeV3 is the prologue both readers share: parse and bound the
// metadata, scaffold the classes, locate and checksum each class's slab
// blocks, and walk them once (checkBlocks). It returns an index whose
// classes carry their verified blocks and no storage yet; openV3 serves
// them in place, Load decodes them.
func decodeV3(data []byte, metric distance.Metric) (*Index, error) {
	hdr, dir, fps, err := parseV3Meta(data, metric)
	if err != nil {
		return nil, err
	}
	if hdr.slabOff+hdr.slabLen < hdr.slabOff || hdr.slabOff+hdr.slabLen > uint64(len(data)) {
		return nil, fmt.Errorf("index: mapped slab: truncated (file %d bytes, slab needs %d)", len(data), hdr.slabOff+hdr.slabLen)
	}
	slab := data[hdr.slabOff : hdr.slabOff+hdr.slabLen]
	x := &Index{
		opts: Options{
			Metric:           metric,
			MaxFragmentEdges: hdr.maxEdges,
		},
		weights:     hdr.kind == kindWeights,
		singleID:    hdr.kind != kindLabelRuns,
		dbSize:      hdr.dbSize,
		fingerprint: hdr.fingerprint,
		fps:         fps,
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
		c.stats = dc.stats
		block := func(what string, off, length uint64, crc uint32) ([]byte, error) {
			if off+length < off || off+length > uint64(len(slab)) {
				return nil, fmt.Errorf("index: mapped slab: class %d %s block: truncated (slab %d bytes, block needs %d)", i, what, len(slab), off+length)
			}
			b := slab[off : off+length]
			if got := crc32.ChecksumIEEE(b); got != crc {
				return nil, fmt.Errorf("index: mapped slab: class %d %s block: checksum mismatch (stored %08x, computed %08x)", i, what, crc, got)
			}
			return b, nil
		}
		if c.entBlock, err = block("entry", dc.entOff, dc.entLen, dc.entCRC); err != nil {
			return nil, err
		}
		if c.postBlock, err = block("posting", dc.postOff, dc.postLen, dc.postCRC); err != nil {
			return nil, err
		}
		c.postCount, c.entCount = dc.postCount, dc.entCount
		if what := x.checkBlocks(c); what != "" {
			return nil, fmt.Errorf("index: mapped slab: class %d %s block: malformed (an id outside the %d-graph database or out of order, or the block does not end with its last entry)", i, what, hdr.dbSize)
		}
		seen[key] = true
		x.list = append(x.list, c)
	}
	x.plant()
	return x, nil
}

// checkBlocks walks c's checksummed blocks once and proves what a CRC
// cannot: every graph id lies in [0, dbSize), id lists ascend strictly,
// and each block ends exactly with its last entry. It names the
// offending block, or returns "". The walk also counts c.fragments: the
// directory's figure is not read, since images written before the merge
// counted occurrences there.
func (x *Index) checkBlocks(c *Class) string {
	cur := blockCursor{b: c.postBlock}
	cur.skipIDs(uint64(c.postCount), uint64(x.dbSize))
	if cur.bad || cur.pos != len(cur.b) {
		return "posting"
	}
	cur = blockCursor{b: c.entBlock}
	key := make([]uint64, c.SeqLen())
	var prev []byte // the entry before, whole: a kind 2 image repeats a pair once per occurrence
	for e := 0; e < c.entCount && !cur.bad; e++ {
		from := cur.pos
		x.readKey(&cur, key) // decoded, not stepped over: an overlong varint is malformed
		n := x.entryIDs(&cur)
		cur.skipIDs(n, uint64(x.dbSize))
		if ent := cur.b[from:cur.pos]; !x.singleID || !bytes.Equal(ent, prev) {
			c.fragments += int(n)
			prev = ent
		}
	}
	if cur.bad || cur.pos != len(cur.b) {
		return "entry"
	}
	return ""
}

// OpenMapped opens an index file through a memory mapping: the directory
// (class keys, offsets, stats, fingerprints) loads into heap, posting and
// entry blocks stay on disk and are decoded from the mapping at query
// time; Pair adds the posting bitmaps, on the heap. Every block is
// checksummed and walked here, so corruption fails at open with the
// damaged section named instead of surfacing as wrong answers later. The
// caller owns the returned index's Close.
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

// openV3 builds a mapped index over an image. mapping may be nil (tests
// feed raw bytes); the index takes ownership when it is not.
func openV3(data []byte, metric distance.Metric, mapping *mmapio.Mapping) (*Index, error) {
	x, err := decodeV3(data, metric)
	if err != nil {
		return nil, err
	}
	for _, c := range x.list {
		c.mapped = true
	}
	x.mapping = mapping
	return x, nil
}

// Load decodes an image written by Save, WriteMapped or BuildStreaming
// into an ordinary heap index. The metric must match the one used at
// build time (at minimum its vertex-blindness and whether it reads labels
// or weights must agree). Callers attach the index to a graph set (Pair)
// only after checking DBSize and Fingerprint against the actual graphs.
func Load(r io.Reader, metric distance.Metric) (*Index, error) {
	if metric == nil {
		return nil, fmt.Errorf("index: Metric is required")
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: reading image: %w", err)
	}
	x, err := decodeV3(data, metric)
	if err != nil {
		return nil, err
	}
	for _, c := range x.list {
		cur := blockCursor{b: c.postBlock}
		c.postings = cur.idList(make([]int32, 0, c.postCount), c.postCount)
		x.eachEntry(c, func(key []uint64, ids []int32) { c.stage.fold(key, ids...) })
		// Drop the references into data so the image can be collected.
		c.entBlock, c.postBlock, c.entCount, c.postCount = nil, nil, 0, 0
	}
	x.finalize()
	return x, nil
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

// skip advances past n bytes.
func (c *blockCursor) skip(n int) {
	if c.bad || n > len(c.b)-c.pos {
		c.bad = true
		return
	}
	c.pos += n
}

// skipVarints advances past n varints without decoding them: a varint
// ends at its first byte below 0x80, so while more than eight remain the
// eight bytes ahead hold no more ends than that and are counted as one
// word. A block that runs out first sets bad.
func (c *blockCursor) skipVarints(n int) {
	if c.bad {
		return
	}
	pos := c.pos
	for ; n > 8 && pos+8 <= len(c.b); pos += 8 {
		w := binary.LittleEndian.Uint64(c.b[pos:])
		n -= bits.OnesCount64(^w & 0x8080808080808080)
	}
	for ; n > 0 && pos < len(c.b); pos++ {
		if c.b[pos] < 0x80 {
			n--
		}
	}
	c.pos = pos
	c.bad = n > 0
}

// skipIDs walks n delta-coded ids, setting bad unless they ascend
// strictly and stay below limit.
func (c *blockCursor) skipIDs(n, limit uint64) {
	id := uint64(0)
	for i := uint64(0); i < n && !c.bad; i++ {
		d := c.uvarint()
		if d >= limit || (i > 0 && d == 0) {
			c.bad = true
			return
		}
		if i == 0 {
			id = d
		} else {
			id += d
		}
		if id >= limit {
			c.bad = true
		}
	}
}

// idList appends n delta-decoded ids to dst.
func (c *blockCursor) idList(dst []int32, n int) []int32 {
	id := int32(0)
	for i := 0; i < n; i++ {
		d := int32(c.uvarint())
		if c.bad {
			return dst
		}
		if i == 0 {
			id = d
		} else {
			id += d
		}
		dst = append(dst, id)
	}
	return dst
}

func (c *blockCursor) done() bool { return c.bad || c.pos >= len(c.b) }

// IsMapped reports whether the index serves its slab through a mapping.
func (x *Index) IsMapped() bool { return x.mapping != nil }

// MappedPath returns the backing file of a mapped index ("" when not
// mapped).
func (x *Index) MappedPath() string { return x.mappedPath }

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
