// Out-of-core index construction. BuildStreaming is the in-memory build
// run over the stream one bounded chunk of graphs at a time: it folds and
// seals each chunk as BuildParallel does (computeOps → apply, on the same
// worker pool) under chunk-local ids, writes the chunk's sealed entries,
// postings and per-graph fingerprints to a run file in the image's
// encodings, and drops the chunk. Chunks cover ascending, disjoint id
// ranges, so the merge is a concatenation: a class's entries merge by key,
// a key found in several chunks taking their id runs in chunk order, each
// shifted by its chunk's first id, and postings and fingerprints are the
// chunks' lists end to end. Planner statistics come from the merged
// entries by the fixed-stride rule of every build (sampleKeys), so the
// image is Save's of BuildParallel over the same graphs, byte for byte,
// whatever the chunk bound.

package index

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"

	"pis/internal/graph"
	"pis/internal/mining"
)

// GraphSource yields the database graphs one at a time, in id order.
type GraphSource interface {
	// Next returns the next graph, or false when the stream ends.
	Next() (*graph.Graph, bool)
}

// StreamResult reports what BuildStreaming did.
type StreamResult struct {
	// SpillRuns counts the chunks, each written as one run file, and
	// SpillBytes the bytes of those files.
	SpillRuns  int
	SpillBytes int64
	// RawPostingBytes is the uncompressed (4 bytes per id and symbol)
	// volume of every posting list and stored entry — the
	// "total posting bytes" a heap build would hold resident, and the
	// denominator of the build's peak-RSS budget.
	RawPostingBytes int64
}

// A chunk closes once its graphs' estimated fold footprint reaches the
// chunk bound: min(maxChunkBytes, the Go memory limit / chunkLimitShare).
// The estimate charges foldBytesPerElement per vertex and edge: measured on
// generated molecules, a graph holds 28 bytes per element and its share of
// a chunk's staged entries 13 to 27 (20 classes of 2–5 edges, chunks of
// 8,000 down to 500 graphs).
const (
	maxChunkBytes       = 16 << 20
	chunkLimitShare     = 8
	foldBytesPerElement = 64
)

// chunkBound is the chunk bound under the process's memory limit; with
// none set it is maxChunkBytes.
func chunkBound() int64 {
	return min(maxChunkBytes, debug.SetMemoryLimit(-1)/chunkLimitShare)
}

// BuildStreaming builds a v3 mapped index file at path over exactly n
// graphs from src, holding one bounded chunk of them in heap at a time.
// The result is opened with OpenMapped (out-of-core) or Load (heap).
// Features come from the caller (mined over a sample; mining needs only a
// representative subset, not the whole stream). Run files are written
// next to path and removed before it returns.
func BuildStreaming(src GraphSource, n int, features []mining.Feature, opts Options, path string) (StreamResult, error) {
	return buildStreaming(src, n, features, opts, path, chunkBound())
}

// buildStreaming is BuildStreaming with chunks of chunkBytes estimated
// footprint; a chunk holds at least one graph.
func buildStreaming(src GraphSource, n int, features []mining.Feature, opts Options, path string, chunkBytes int64) (StreamResult, error) {
	var res StreamResult
	if n <= 0 {
		return res, fmt.Errorf("index: streaming build needs a declared positive size, got %d", n)
	}
	x, err := scaffold(features, opts)
	if err != nil {
		return res, err
	}

	tmpDir, err := os.MkdirTemp(filepath.Dir(path), filepath.Base(path)+".build-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmpDir)

	fpr := graph.NewFingerprinter(n)
	var runs []*runReader
	defer func() {
		for _, r := range runs {
			r.f.Close()
		}
	}()
	var chunk []*graph.Graph
	for base := 0; base < n; base += len(chunk) {
		clear(chunk) // the last chunk's graphs are garbage once folded
		chunk = chunk[:0]
		for cost := int64(0); base+len(chunk) < n && (len(chunk) == 0 || cost < chunkBytes); {
			g, ok := src.Next()
			if !ok {
				return res, fmt.Errorf("index: graph source ended after %d of %d graphs", base+len(chunk), n)
			}
			fpr.Add(g)
			chunk = append(chunk, g)
			cost += foldBytesPerElement * int64(g.N()+g.M())
		}
		r, size, err := x.writeChunk(chunk, filepath.Join(tmpDir, fmt.Sprintf("run-%05d", len(runs))))
		if err != nil {
			return res, err
		}
		r.base = int32(base)
		runs = append(runs, r)
		res.SpillBytes += size
	}
	chunk = nil
	if _, extra := src.Next(); extra {
		return res, fmt.Errorf("index: graph source yielded more than the declared %d graphs", n)
	}
	res.SpillRuns = len(runs)

	slabFile, err := os.Create(filepath.Join(tmpDir, "slab"))
	if err != nil {
		return res, err
	}
	defer slabFile.Close()
	dir, slabLen, err := x.mergeRuns(runs, slabFile, &res)
	if err != nil {
		return res, err
	}

	x.dbSize, x.fingerprint = n, fpr.Sum()
	hdr := x.header(slabLen)
	hdr.hasFPs = true // x holds none: the runs do
	// What the merge left unread of each run is its chunk's fingerprints.
	preamble := fpPreamble(n)
	fps, fpLen := []io.Reader{bytes.NewReader(preamble)}, len(preamble)
	for _, r := range runs {
		fps, fpLen = append(fps, r.r), fpLen+r.fpLen
	}
	return res, writeFileAtomic(path, func(w io.Writer) error {
		return writeV3Image(w, hdr, dir, io.MultiReader(fps...), fpLen, io.NewSectionReader(slabFile, 0, int64(slabLen)))
	})
}

// writeChunk folds chunk under ids from 0, seals the classes and writes
// them to a run file at name: per class its entry count as the image
// counts entries, the sealed entries and the postings; then one
// fingerprint per graph. It leaves the class stores empty and returns the
// run, open for reading, and its size.
func (x *Index) writeChunk(chunk []*graph.Graph, name string) (*runReader, int64, error) {
	x.fold(chunk, 0, 0)
	x.finalize()
	f, err := os.Create(name)
	if err != nil {
		return nil, 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	sw := &v3SlabWriter{w: bw}
	for _, c := range x.list {
		sw.uvarint(uint64(x.entryUnits(&c.ents)))
		for e := 0; e < c.ents.entries(); e++ {
			x.writeEntry(sw, c.ents.key(e), c.ents.run(e))
		}
		sw.uvarint(uint64(len(c.postings)))
		sw.ids(c.postings)
		c.ents, c.postings = slab{}, nil
	}
	var fp GraphFP
	fpFrom := len(sw.buf)
	for _, g := range chunk {
		fillGraphFP(&fp, g)
		sw.buf = appendGraphFP(sw.buf, &fp)
	}
	fpLen := len(sw.buf) - fpFrom
	sw.flushBuf()
	if err := cmp.Or(sw.err, bw.Flush()); err != nil {
		f.Close()
		return nil, 0, err
	}
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, int64(sw.off)), 1<<15)
	return &runReader{f: f, r: r, fpLen: fpLen}, int64(sw.off), nil
}

// runReader reads entries and id lists back in the image's encodings:
// from a chunk's run file, or from a merged entry block.
type runReader struct {
	f     *os.File // the run file; nil when reading a block
	r     *bufio.Reader
	base  int32 // added to every id read: the chunk's first graph id
	left  int   // entries still to read in the current class
	fpLen int   // bytes of fingerprints the run ends with
	key   []uint64
	ids   []int32
	err   error
}

func (r *runReader) uvarint() uint64 {
	v, err := binary.ReadUvarint(r.r)
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("index: reading a build run: %w", err)
	}
	return v
}

// idList reads n ids (first, then gaps) into r.ids, shifted by base.
func (r *runReader) idList(n uint64) {
	r.ids = r.ids[:0]
	id := r.base
	for i := uint64(0); i < n && r.err == nil; i++ {
		id += int32(r.uvarint())
		r.ids = append(r.ids, id)
	}
}

// next reads the current class's next entry into key and ids, reporting
// false once the class has none left or the run is unreadable.
func (r *runReader) next(x *Index) bool {
	if r.left == 0 || r.err != nil {
		return false
	}
	r.left--
	var w [8]byte
	for i := range r.key {
		if !x.weights {
			r.key[i] = r.uvarint()
		} else if _, err := io.ReadFull(r.r, w[:]); err != nil {
			r.err = fmt.Errorf("index: reading a build run: %w", err)
		} else {
			r.key[i] = binary.LittleEndian.Uint64(w[:])
		}
	}
	if x.weights {
		r.idList(1)
	} else {
		r.idList(r.uvarint())
	}
	return r.err == nil
}

// mergeRuns merges the runs class by class into the slab it writes to f
// and returns the image directory and the slab's length, adding the raw
// posting bytes to res.
func (x *Index) mergeRuns(runs []*runReader, f *os.File, res *StreamResult) ([]v3DirClass, uint64, error) {
	bw := bufio.NewWriterSize(f, 1<<16)
	sw := &v3SlabWriter{w: bw}
	elem := int64(4)
	if x.weights {
		elem = 8
	}
	// Runs holding a key come off live ordered by key, then by chunk: a
	// key's id runs in ascending id order.
	order := func(a, b *runReader) int {
		return cmp.Or(compareKeys(a.key, b.key, x.weights), cmp.Compare(a.base, b.base))
	}
	dir := make([]v3DirClass, len(x.list))
	live := make([]*runReader, 0, len(runs))
	var key []uint64
	var ids []int32
	for ci, c := range x.list {
		L := c.SeqLen()
		for _, r := range runs {
			r.left = int(r.uvarint())
			r.key = slices.Grow(r.key[:0], L)[:L]
			if r.next(x) {
				live = append(live, r)
			}
		}
		slices.SortFunc(live, order)
		dc := &dir[ci]
		dc.code, dc.vOff = c.Code, c.vOff
		dc.entOff = sw.beginBlock()
		for len(live) > 0 {
			key = append(key[:0], live[0].key...)
			ids = ids[:0]
			for len(live) > 0 && slices.Equal(live[0].key, key) {
				r := live[0]
				live = slices.Delete(live, 0, 1)
				ids = append(ids, r.ids...)
				if r.next(x) {
					i, _ := slices.BinarySearchFunc(live, r, order)
					live = slices.Insert(live, i, r)
				}
			}
			written := x.writeEntry(sw, key, ids)
			dc.entCount += written
			dc.fragments += len(ids)
			res.RawPostingBytes += int64(written)*elem*int64(L) + 4*int64(len(ids))
		}
		dc.entLen, dc.entCRC = sw.endBlock(dc.entOff)

		dc.postOff = sw.beginBlock()
		prev := int32(0)
		for _, r := range runs {
			r.idList(r.uvarint())
			for _, id := range r.ids {
				sw.uvarint(uint64(uint32(id - prev)))
				prev = id
			}
			dc.postCount += len(r.ids)
		}
		dc.postLen, dc.postCRC = sw.endBlock(dc.postOff)
		res.RawPostingBytes += 4 * int64(dc.postCount)
		for _, r := range runs {
			if r.err != nil {
				return nil, 0, r.err
			}
		}
		if err := cmp.Or(sw.err, bw.Flush()); err != nil {
			return nil, 0, err
		}
		keys, err := x.sampleBlock(c, f, dc.entOff, dc.entLen, dc.entCount)
		if err != nil {
			return nil, 0, err
		}
		dc.stats = x.pairStats(c, keys, int32(dc.postCount), int32(dc.entCount))
	}
	return dir, sw.off, nil
}

// sampleBlock returns the keys sampleKeys picks over a class's merged
// entries, read back from their block of units entries at off in f.
func (x *Index) sampleBlock(c *Class, f *os.File, off, length uint64, units int) ([][]uint64, error) {
	r := &runReader{
		r:    bufio.NewReaderSize(io.NewSectionReader(f, int64(off), int64(length)), 1<<15),
		left: units,
		key:  make([]uint64, c.SeqLen()),
	}
	var keys [][]uint64
	stride := sampleStride(units)
	for u := 0; len(keys) < statsSamplePerClass && r.next(x); u++ {
		if u%stride == 0 {
			keys = append(keys, slices.Clone(r.key))
		}
	}
	return keys, r.err
}
