// Out-of-core index construction. BuildStreaming is the in-memory build
// run over the stream one bounded chunk of graphs at a time: it folds each
// chunk as BuildParallel does (computeOps → apply, on the same worker
// pool) under chunk-local ids, writes the chunk's sorted entries to a run
// file, and drops the chunk. Chunks cover ascending, disjoint id ranges,
// so the merge is a concatenation: a class's entries merge by key, a key
// found in several chunks taking their id runs in chunk order, each
// shifted by its chunk's first id. The merge writes each id run to the
// image as it forms and appends the class's fixed-width columns when the
// class ends (slab.go), so the image is Save's of BuildParallel over the
// same graphs, byte for byte, whatever the chunk bound.

package index

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"

	"pis/internal/fsys"
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
	// RawPostingBytes is the uncompressed volume of every stored entry, 4
	// bytes per graph id of its run and 4 or 8 per key position — the
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
	bw := bufio.NewWriterSize(slabFile, 1<<16)
	dir, slabLen, err := x.mergeRuns(runs, bw, &res)
	if err = cmp.Or(err, bw.Flush()); err != nil {
		return res, err
	}

	x.dbSize, x.fingerprint = n, fpr.Sum()
	hdr := x.header(slabLen)
	return res, fsys.WriteFileAtomic(fsys.OS, filepath.Dir(path), filepath.Base(path), func(w io.Writer) error {
		return writeV3Image(w, hdr, dir, io.NewSectionReader(slabFile, 0, int64(slabLen)))
	})
}

// writeChunk folds chunk under ids from 0 and writes the classes to a run
// file at name: per class its entry count, then every entry in key order
// (each key position a uvarint, the run's length and the run). It leaves
// the class stores empty and returns the run, open for reading, and its
// size.
func (x *Index) writeChunk(chunk []*graph.Graph, name string) (*runReader, int64, error) {
	x.fold(chunk, 0, 0)
	f, err := os.Create(name)
	if err != nil {
		return nil, 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	sw := &v3SlabWriter{w: bw}
	for _, c := range x.list {
		sw.uvarint(uint64(len(c.stage.runs)))
		c.stage.each(c.SeqLen(), x.weights, func(key []uint64, run []int32) {
			for _, k := range key {
				sw.uvarint(k)
			}
			sw.uvarint(uint64(len(run)))
			sw.ids(run)
		})
		c.stage = staging{}
	}
	sw.flushBuf()
	if err := cmp.Or(sw.err, bw.Flush()); err != nil {
		f.Close()
		return nil, 0, err
	}
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, int64(sw.off)), 1<<15)
	return &runReader{f: f, r: r}, int64(sw.off), nil
}

// runReader reads entries and id lists back from a chunk's run file.
type runReader struct {
	f    *os.File
	r    *bufio.Reader
	base int32 // added to every id read: the chunk's first graph id
	left int   // entries still to read in the current class
	key  []uint64
	ids  []int32
	err  error
}

func (r *runReader) uvarint() uint64 {
	v, err := binary.ReadUvarint(r.r)
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("index: reading a build run: %w", err)
	}
	return v
}

// next reads the current class's next entry into key and ids (its first id,
// then the gaps, shifted by base), reporting false once the class has none
// left or the run is unreadable.
func (r *runReader) next() bool {
	if r.left == 0 || r.err != nil {
		return false
	}
	r.left--
	for i := range r.key {
		r.key[i] = r.uvarint()
	}
	r.ids = r.ids[:0]
	id := r.base
	for n := r.uvarint(); n > 0 && r.err == nil; n-- {
		id += int32(r.uvarint())
		r.ids = append(r.ids, id)
	}
	return r.err == nil
}

// mergeRuns merges the runs class by class into the slab it writes to w
// and returns the image directory and the slab's length, adding the raw
// posting bytes to res.
func (x *Index) mergeRuns(runs []*runReader, w io.Writer, res *StreamResult) ([]v3DirClass, uint64, error) {
	sw := &v3SlabWriter{w: w}
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
	var run []byte
	for ci, c := range x.list {
		L := c.SeqLen()
		for _, r := range runs {
			r.left = int(r.uvarint())
			r.key = slices.Grow(r.key[:0], L)[:L]
			if r.next() {
				live = append(live, r)
			}
		}
		slices.SortFunc(live, order)
		dc := &dir[ci]
		dc.code, dc.vOff = c.Code, c.vOff
		dc.entOff = sw.beginBlock()
		es := x.newEntries(c)
		for len(live) > 0 {
			key = append(key[:0], live[0].key...)
			ids = ids[:0]
			for len(live) > 0 && slices.Equal(live[0].key, key) {
				r := live[0]
				live = slices.Delete(live, 0, 1)
				ids = append(ids, r.ids...)
				if r.next() {
					i, _ := slices.BinarySearchFunc(live, r, order)
					live = slices.Insert(live, i, r)
				}
			}
			run = appendIDs(run[:0], ids)
			sw.bytes(run)
			es.add(key, len(run))
			res.RawPostingBytes += elem*int64(L) + 4*int64(len(ids))
		}
		for _, col := range [][]byte{es.keys, es.lcp, es.ends} {
			sw.bytes(col)
		}
		dc.entCount = es.n()
		dc.entLen, dc.entCRC = sw.endBlock(dc.entOff)
		for _, r := range runs {
			if r.err != nil {
				return nil, 0, r.err
			}
		}
	}
	return dir, sw.off, sw.err
}
