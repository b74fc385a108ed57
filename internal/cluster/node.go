// The node: the server side of the shard RPC. A node hosts the subset
// of global shards the placement map assigns it, each a plain
// segment.Segment — the same type the single-process database runs —
// and answers one RPC at a time per connection. During a search it
// watches the socket: the client never pipelines, so a readable byte
// (or hangup) mid-query means the caller is gone, and the node cancels
// the shard search instead of verifying candidates nobody will collect.
// That is the server half of hedged-request cancellation.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bufio"

	"pis/internal/binio"
	"pis/internal/segment"
	"pis/internal/store"
)

// fileChunk bounds one file-transfer section payload.
const fileChunk = 4 << 20

// Node serves this process's shard replicas over TCP.
type Node struct {
	ln    net.Listener
	epoch int64

	mu   sync.RWMutex
	segs map[int]*segment.Segment

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	compacting sync.Map // shard idx -> *atomic.Bool, single-flight compaction

	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewNode listens on addr (host:port, :0 for ephemeral) and serves
// RPCs for the shards registered with SetShard. The segments are owned
// by the caller: Close stops serving but does not close them.
func NewNode(addr string) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	n := &Node{
		ln:    ln,
		epoch: time.Now().UnixNano(),
		segs:  make(map[int]*segment.Segment),
		conns: make(map[net.Conn]struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the bound listen address (useful with :0).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Epoch returns the node's process incarnation stamp.
func (n *Node) Epoch() int64 { return n.epoch }

// SetShard registers seg as the local replica of global shard idx.
func (n *Node) SetShard(idx int, seg *segment.Segment) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.segs[idx] = seg
}

// Shard returns the local replica of global shard idx, or nil.
func (n *Node) Shard(idx int) *segment.Segment {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.segs[idx]
}

// Shards returns the registered (idx, segment) pairs in index order.
func (n *Node) Shards() (idxs []int, segs []*segment.Segment) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	idxs = slices.Sorted(maps.Keys(n.segs))
	for _, idx := range idxs {
		segs = append(segs, n.segs[idx])
	}
	return idxs, segs
}

// Close stops the listener and tears down every open connection, then
// waits for in-flight handlers (and background compactions) to finish.
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := n.ln.Close()
	n.connMu.Lock()
	for c := range n.conns {
		c.Close()
	}
	n.connMu.Unlock()
	n.wg.Wait()
	return err
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.connMu.Lock()
		if n.closed.Load() {
			n.connMu.Unlock()
			c.Close()
			return
		}
		n.conns[c] = struct{}{}
		n.connMu.Unlock()
		n.wg.Add(1)
		go n.handleConn(c)
	}
}

func (n *Node) dropConn(c net.Conn) {
	c.Close()
	n.connMu.Lock()
	delete(n.conns, c)
	n.connMu.Unlock()
}

func (n *Node) handleConn(c net.Conn) {
	defer n.wg.Done()
	defer n.dropConn(c)
	br := bufio.NewReader(c)
	sr := binio.NewSectionReader(br)
	bw := bufio.NewWriter(c)
	sw := binio.NewSectionWriter(bw)
	for {
		if err := sr.Next(); err != nil {
			return // hangup, or torn frame: either way the stream is done
		}
		op := sr.U8()
		deadline := sr.Uvarint()
		if sr.Err() != nil {
			return
		}
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if deadline > 0 {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(deadline)*time.Microsecond)
		}
		ok := n.serveOne(ctx, op, c, sr, sw, bw)
		cancel()
		if !ok {
			return
		}
	}
}

// serveOne dispatches one request and writes one response (or, for
// opFetchFiles, a response stream). It reports whether the connection
// can carry another request.
func (n *Node) serveOne(ctx context.Context, op byte, c net.Conn, sr *binio.SectionReader, sw *binio.SectionWriter, bw *bufio.Writer) bool {
	if op == opFetchFiles {
		return n.handleFetchFiles(sr, sw, bw)
	}
	alive := true
	sw.Begin()
	sw.U8(statusOK)
	var err error
	switch op {
	case opPing:
		sw.Varint(n.epoch)
	case opSearch:
		alive, err = n.handleSearch(ctx, c, sr, sw)
	case opKNN:
		alive, err = n.handleKNN(ctx, c, sr, sw)
	case opInsert:
		err = n.handleInsert(sr)
	case opDelete:
		err = n.handleDelete(sr, sw)
	case opStats:
		n.writeState(sw)
	case opGraph:
		err = n.handleGraph(sr, sw)
	case opCompact:
		if err = endOfRequest(sr); err == nil {
			err = n.forEachShard((*segment.Segment).Compact)
		}
	case opCheckpoint:
		if err = endOfRequest(sr); err == nil {
			err = n.forEachShard((*segment.Segment).Checkpoint)
		}
	case opWALAfter:
		err = n.handleWALAfter(sr, sw)
	default:
		err = fmt.Errorf("unknown op %d", op)
	}
	if err != nil {
		sw.Begin() // drop any partial payload
		sw.U8(statusErr)
		sw.Bytes([]byte(err.Error()))
	}
	if err := sw.Flush(); err != nil {
		return false
	}
	if err := bw.Flush(); err != nil {
		return false
	}
	return alive
}

// watchHangup cancels the returned context if the client hangs up (or
// sends anything) while a query runs. The returned stop function must
// be called before touching the connection again; it reports false when
// the connection consumed a stray byte and must be abandoned.
func watchHangup(ctx context.Context, c net.Conn) (context.Context, func() bool) {
	mctx, cancel := context.WithCancel(ctx)
	done := make(chan bool, 1)
	go func() {
		var b [1]byte
		_, err := c.Read(b[:])
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			done <- true // kicked out by stop(): client still attached
			return
		}
		// Hangup — or a protocol-violating stray byte, which desyncs the
		// framing; both end the request and the connection.
		cancel()
		done <- false
	}()
	stop := func() bool {
		c.SetReadDeadline(time.Now())
		alive := <-done
		c.SetReadDeadline(time.Time{})
		cancel()
		return alive
	}
	return mctx, stop
}

// endOfRequest refuses a request with bytes after its last field. The
// RPC carries no version, so such a request comes from a peer running
// another build; each handler calls it before it acts.
func endOfRequest(sr *binio.SectionReader) error {
	if err := sr.Err(); err != nil {
		return fmt.Errorf("malformed request: %w", err)
	}
	if n := sr.Remaining(); n != 0 {
		return fmt.Errorf("malformed request: %d bytes after the last field", n)
	}
	return nil
}

func (n *Node) shardArg(sr *binio.SectionReader) (*segment.Segment, error) {
	idx := int(sr.Uvarint())
	if err := sr.Err(); err != nil {
		return nil, err
	}
	seg := n.Shard(idx)
	if seg == nil {
		return nil, fmt.Errorf("not hosting shard %d", idx)
	}
	return seg, nil
}

func (n *Node) handleSearch(ctx context.Context, c net.Conn, sr *binio.SectionReader, sw *binio.SectionWriter) (alive bool, err error) {
	seg, err := n.shardArg(sr)
	if err != nil {
		return true, err
	}
	sigma := sr.F64()
	q, err := readGraph(sr)
	if err == nil {
		err = endOfRequest(sr)
	}
	if err != nil {
		return true, err
	}
	mctx, stop := watchHangup(ctx, c)
	r, err := seg.SearchCtx(mctx, q, sigma)
	alive = stop()
	if err != nil {
		return alive, err
	}
	writeResult(sw, &r)
	return alive, nil
}

func (n *Node) handleKNN(ctx context.Context, c net.Conn, sr *binio.SectionReader, sw *binio.SectionWriter) (alive bool, err error) {
	seg, err := n.shardArg(sr)
	if err != nil {
		return true, err
	}
	k := int(sr.Uvarint())
	maxSigma := sr.F64()
	q, err := readGraph(sr)
	if err == nil {
		err = endOfRequest(sr)
	}
	if err != nil {
		return true, err
	}
	mctx, stop := watchHangup(ctx, c)
	ns, err := seg.SearchKNNCtx(mctx, q, k, maxSigma)
	alive = stop()
	if err != nil {
		return alive, err
	}
	writeNeighbors(sw, ns)
	return alive, nil
}

func (n *Node) handleInsert(sr *binio.SectionReader) error {
	idx := int(sr.Uvarint())
	seg := n.Shard(idx)
	if seg == nil {
		return fmt.Errorf("not hosting shard %d", idx)
	}
	id := int32(sr.U32())
	g, err := readGraph(sr)
	if err == nil {
		err = endOfRequest(sr)
	}
	if err != nil {
		return err
	}
	needsCompact, err := seg.Insert(g, id)
	if err != nil {
		return err
	}
	if needsCompact {
		n.compactAsync(idx, seg)
	}
	return nil
}

// compactAsync folds the shard's delta in the background, one
// compaction per shard at a time. Answers never depend on compaction
// state, so replicas compacting at different moments stay equivalent.
func (n *Node) compactAsync(idx int, seg *segment.Segment) {
	flagAny, _ := n.compacting.LoadOrStore(idx, new(atomic.Bool))
	flag := flagAny.(*atomic.Bool)
	if !flag.CompareAndSwap(false, true) {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer flag.Store(false)
		_ = seg.Compact() // failure keeps serving from the un-compacted state
	}()
}

func (n *Node) handleDelete(sr *binio.SectionReader, sw *binio.SectionWriter) error {
	id := int32(sr.U32())
	if err := endOfRequest(sr); err != nil {
		return err
	}
	found := false
	_, segs := n.Shards()
	for _, seg := range segs {
		ok, err := seg.Delete(id)
		if err != nil {
			return err
		}
		if ok {
			found = true
			break // global ids are unique across shards
		}
	}
	sw.Bool(found)
	return nil
}

func (n *Node) handleGraph(sr *binio.SectionReader, sw *binio.SectionWriter) error {
	id := int32(sr.U32())
	if err := endOfRequest(sr); err != nil {
		return err
	}
	_, segs := n.Shards()
	for _, seg := range segs {
		if g := seg.Graph(id); g != nil {
			sw.U8(1)
			enc := g.AppendBinary(nil)
			sw.Uvarint(uint64(len(enc)))
			sw.Bytes(enc)
			return nil
		}
	}
	sw.U8(0)
	return nil
}

func (n *Node) forEachShard(f func(*segment.Segment) error) error {
	var errs []error
	_, segs := n.Shards()
	for _, seg := range segs {
		if err := f(seg); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (n *Node) writeState(sw *binio.SectionWriter) {
	idxs, segs := n.Shards()
	ns := nodeState{Epoch: n.epoch}
	for i, seg := range segs {
		ns.Shards = append(ns.Shards, shardState{Shard: idxs[i], Stats: seg.Stats()})
	}
	writeNodeState(sw, &ns)
}

func (n *Node) handleWALAfter(sr *binio.SectionReader, sw *binio.SectionWriter) error {
	seg, err := n.shardArg(sr)
	if err != nil {
		return err
	}
	after := sr.U64()
	if err := endOfRequest(sr); err != nil {
		return err
	}
	recs, ok, err := seg.WALRecordsAfter(after)
	if err != nil {
		return err
	}
	if !ok {
		sw.U8(walShipFull)
		return nil
	}
	sw.U8(walShipRecords)
	sw.Uvarint(uint64(len(recs)))
	for _, rec := range recs {
		sw.U8(rec.Op)
		sw.U32(uint32(rec.ID))
		if rec.Op == store.OpInsert {
			enc := rec.Graph.AppendBinary(nil)
			sw.Uvarint(uint64(len(enc)))
			sw.Bytes(enc)
		}
	}
	return nil
}

// WAL shipping response modes.
const (
	walShipFull    byte = 0 // gap predates the active WAL: fetch files instead
	walShipRecords byte = 1
)

// handleFetchFiles streams the shard's full durable file set:
//
//	section[ status | uvarint nfiles | uvarint len | manifest ]
//	per file: section[ uvarint len | name | u64 size ]
//	          ⌈size/fileChunk⌉ raw chunk sections
//
// The manifest travels first but the receiver commits it last (see
// store.Install). A file that fails mid-stream — e.g. a checkpoint
// unlinked it under the transfer — tears the connection; the receiver
// sees a framing error and restarts against the new state.
func (n *Node) handleFetchFiles(sr *binio.SectionReader, sw *binio.SectionWriter, bw *bufio.Writer) bool {
	fail := func(err error) bool {
		sw.Begin()
		sw.U8(statusErr)
		sw.Bytes([]byte(err.Error()))
		if sw.Flush() != nil {
			return false
		}
		return bw.Flush() == nil
	}
	seg, err := n.shardArg(sr)
	if err == nil {
		err = endOfRequest(sr)
	}
	if err != nil {
		return fail(err)
	}
	ts, dir, err := seg.TransferState()
	if err != nil {
		return fail(err)
	}
	sw.Begin()
	sw.U8(statusOK)
	sw.Uvarint(uint64(len(ts.Files)))
	sw.Uvarint(uint64(len(ts.Manifest)))
	sw.Bytes(ts.Manifest)
	if sw.Flush() != nil {
		return false
	}
	buf := make([]byte, fileChunk)
	for _, name := range ts.Files {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return false // already mid-stream: tear the connection
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return false
		}
		size := fi.Size()
		sw.Begin()
		sw.Uvarint(uint64(len(name)))
		sw.Bytes([]byte(name))
		sw.U64(uint64(size))
		if sw.Flush() != nil {
			f.Close()
			return false
		}
		for off := int64(0); off < size; off += fileChunk {
			want := size - off
			if want > fileChunk {
				want = fileChunk
			}
			if _, err := io.ReadFull(f, buf[:want]); err != nil {
				f.Close()
				return false
			}
			sw.Begin()
			sw.Bytes(buf[:want])
			if sw.Flush() != nil {
				f.Close()
				return false
			}
		}
		f.Close()
	}
	return bw.Flush() == nil
}
