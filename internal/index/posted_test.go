package index

import (
	"bytes"
	"hash/crc32"
	"slices"
	"testing"

	"pis/internal/binio"
	"pis/internal/canon"
	"pis/internal/graph"
)

// Images of kinds 3 and 4 follow every class's entry block with a posting
// block: the graphs of the entry runs once more, as the first id and then
// the gaps. Readers no longer read it. These helpers decode an image with
// every directory slot, the obsolete ones too, so tests can read those
// blocks, craft images that carry them, and plant values in the slots.

// rawClass is one directory entry, every slot as stored.
type rawClass struct {
	code                     canon.Code
	vOff, pairs              uint64
	postCount                uint64
	postOff, postLen         uint64
	postCRC                  uint32
	entCount, entOff, entLen uint64
	entCRC                   uint32
	stats                    [2 + statsHistBuckets]uint64
	postings, entries        []byte // the class's blocks in the slab
}

// rawImage is an image's header and directory, every slot as stored.
type rawImage struct {
	kind, vertexBlind byte
	maxEdges, dbSize  uint64
	fingerprint       uint64
	nClasses, width   uint64
	dir               []rawClass
}

// readRaw decodes image, failing t on anything malformed.
func readRaw(t testing.TB, image []byte) rawImage {
	t.Helper()
	var r rawImage
	sr := binio.NewSectionReader(bytes.NewReader(image[len(persistMagic):]))
	if err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	r.kind, r.vertexBlind = sr.U8(), sr.U8()
	r.maxEdges, r.dbSize = sr.Uvarint(), sr.Uvarint()
	r.fingerprint = sr.U64()
	r.nClasses, r.width = sr.Uvarint(), sr.Uvarint()
	sr.U8() // the fingerprint-section flag
	slabOff, slabLen := sr.U64(), sr.U64()
	slab := image[slabOff : slabOff+slabLen]
	if err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	for range r.nClasses {
		var dc rawClass
		dc.code = make(canon.Code, sr.Uvarint())
		for i := range dc.code {
			dc.code[i] = canon.Tuple{I: int32(sr.Varint()), J: int32(sr.Varint()),
				LI: graph.VLabel(sr.Uvarint()), LE: graph.ELabel(sr.Uvarint()), LJ: graph.VLabel(sr.Uvarint())}
		}
		dc.vOff, dc.pairs, dc.postCount = sr.Uvarint(), sr.Uvarint(), sr.Uvarint()
		dc.postOff, dc.postLen, dc.postCRC = sr.U64(), sr.U64(), sr.U32()
		dc.entCount = sr.Uvarint()
		dc.entOff, dc.entLen, dc.entCRC = sr.U64(), sr.U64(), sr.U32()
		for i := range dc.stats {
			dc.stats[i] = sr.Uvarint()
		}
		dc.postings = slab[dc.postOff : dc.postOff+dc.postLen]
		dc.entries = slab[dc.entOff : dc.entOff+dc.entLen]
		r.dir = append(r.dir, dc)
	}
	if err := sr.Err(); err != nil {
		t.Fatal(err)
	}
	return r
}

// bytes encodes r with a slab of every class's entry block and then its
// posting block, the offsets, lengths and CRCs set to match, and no
// fingerprint section.
func (r rawImage) bytes(t testing.TB) []byte {
	t.Helper()
	var slab []byte
	for i := range r.dir {
		dc := &r.dir[i]
		dc.entOff, dc.entLen, dc.entCRC = uint64(len(slab)), uint64(len(dc.entries)), crc32.ChecksumIEEE(dc.entries)
		slab = append(slab, dc.entries...)
		dc.postOff, dc.postLen, dc.postCRC = uint64(len(slab)), uint64(len(dc.postings)), crc32.ChecksumIEEE(dc.postings)
		slab = append(slab, dc.postings...)
	}
	header := func(slabOff uint64) []byte {
		var buf bytes.Buffer
		sw := binio.NewSectionWriter(&buf)
		sw.Begin()
		sw.U8(r.kind)
		sw.U8(r.vertexBlind)
		sw.Uvarint(r.maxEdges)
		sw.Uvarint(r.dbSize)
		sw.U64(r.fingerprint)
		sw.Uvarint(uint64(len(r.dir)))
		sw.Uvarint(r.width)
		sw.U8(0)
		sw.U64(slabOff)
		sw.U64(uint64(len(slab)))
		if err := sw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var dir bytes.Buffer
	sw := binio.NewSectionWriter(&dir)
	sw.Begin()
	for _, dc := range r.dir {
		sw.Uvarint(uint64(len(dc.code)))
		for _, tp := range dc.code {
			sw.Varint(int64(tp.I))
			sw.Varint(int64(tp.J))
			sw.Uvarint(uint64(tp.LI))
			sw.Uvarint(uint64(tp.LE))
			sw.Uvarint(uint64(tp.LJ))
		}
		sw.Uvarint(dc.vOff)
		sw.Uvarint(dc.pairs)
		sw.Uvarint(dc.postCount)
		sw.U64(dc.postOff)
		sw.U64(dc.postLen)
		sw.U32(dc.postCRC)
		sw.Uvarint(dc.entCount)
		sw.U64(dc.entOff)
		sw.U64(dc.entLen)
		sw.U32(dc.entCRC)
		for _, v := range dc.stats {
			sw.Uvarint(v)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	pre := uint64(len(persistMagic) + len(header(0)) + dir.Len())
	slabOff := (pre + v3SlabAlign - 1) / v3SlabAlign * v3SlabAlign
	out := append([]byte(persistMagic), header(slabOff)...)
	out = append(out, dir.Bytes()...)
	out = append(out, make([]byte, slabOff-pre)...)
	return append(out, slab...)
}

// blockGraphs decodes a posting block.
func blockGraphs(block []byte) []int32 {
	cur := blockCursor{b: block}
	return cur.idList(nil)
}

// runGraphs is the reference for the graphs that hold class c: the union
// of its entries' id runs, sorted and distinct.
func runGraphs(c *Class) []int32 {
	ids := []int32{}
	c.eachEntry(func(_ []uint64, run []int32) { ids = append(ids, run...) })
	slices.Sort(ids)
	return slices.Compact(ids)
}

// PostedImage returns the image an earlier version, which stored a
// posting block per class (kinds 3 and 4), would have written for x, but
// with class i's posting block holding posted(i, graphs) for the graphs
// its entry runs hold.
func PostedImage(t testing.TB, x *Index, posted func(class int, graphs []int32) []int32) []byte {
	t.Helper()
	var image bytes.Buffer
	if err := x.Save(&image); err != nil {
		t.Fatal(err)
	}
	r := readRaw(t, image.Bytes())
	r.kind = kindPostedLabels
	if x.weights {
		r.kind = kindPostedWeights
	}
	for i := range r.dir {
		ids := posted(i, runGraphs(x.list[i]))
		r.dir[i].postCount = uint64(len(ids))
		r.dir[i].postings = appendIDs(nil, ids)
	}
	return r.bytes(t)
}
