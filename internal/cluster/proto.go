// The inter-node wire format. One RPC is one binio section each way —
// the same length-prefixed, CRC32-checksummed framing the snapshot and
// WAL files use, so a truncated or corrupted message fails loudly at
// the frame instead of desynchronizing the stream:
//
//	request  = section[ u8 op | uvarint deadline_us | payload ]
//	response = section[ u8 status | payload (ok) or message (error) ]
//
// The deadline is the caller's remaining budget in microseconds (0 =
// none); the serving node re-arms its own context from it, which is how
// SearchContext deadlines propagate across the wire without clock
// agreement between nodes. A client never pipelines: the connection
// carries one RPC at a time, which is what lets the server treat any
// readable byte mid-request as "client gone, cancel the work" and the
// client treat closing the connection as cancellation. File transfers
// (opFetchFiles) are the one multi-section response; see node.go.

package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"pis/internal/binio"
	"pis/internal/core"
	"pis/internal/graph"
	"pis/internal/segment"
)

const (
	opPing byte = iota + 1
	opSearch
	opKNN
	opInsert
	opDelete
	opStats
	opGraph
	opCompact
	opCheckpoint
	opWALAfter
	opFetchFiles
)

const (
	statusOK  byte = 0
	statusErr byte = 1
)

// remoteError is a failure reported by the serving node (as opposed to
// a transport failure); the RPC itself completed.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return "remote: " + e.msg }

// deadlineMicros flattens ctx's deadline into the request's travel
// budget; 0 means no deadline.
func deadlineMicros(ctx context.Context) uint64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	left := time.Until(dl)
	if left <= 0 {
		return 1 // already expired; let the remote side fail it uniformly
	}
	return uint64(left / time.Microsecond)
}

// Payload append helpers (request building).

func apU32(b []byte, v uint32) []byte  { return binary.LittleEndian.AppendUint32(b, v) }
func apU64(b []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(b, v) }
func apUv(b []byte, v uint64) []byte   { return binary.AppendUvarint(b, v) }
func apF64(b []byte, v float64) []byte { return apU64(b, math.Float64bits(v)) }
func apGraph(b []byte, g *graph.Graph) []byte {
	enc := g.AppendBinary(nil)
	b = apUv(b, uint64(len(enc)))
	return append(b, enc...)
}

// readGraph decodes one length-prefixed graph from the current section.
// The encoding must be the one apGraph writes for the graph it decodes
// to, byte for byte, like every other frame field.
func readGraph(sr *binio.SectionReader) (*graph.Graph, error) {
	enc := sr.Bytes(int(sr.Uvarint()))
	if err := sr.Err(); err != nil {
		return nil, err
	}
	g, rest, err := graph.DecodeBinary(enc)
	if err != nil || len(rest) != 0 || !bytes.Equal(g.AppendBinary(nil), enc) {
		return nil, fmt.Errorf("cluster: malformed graph encoding")
	}
	return g, nil
}

// Result codec. The full core.Result crosses the wire — answers,
// distances, candidates, and every Stats counter — so the coordinator's
// merged result is indistinguishable from the single-process fan-out's,
// /stats aggregation included.

func writeResult(sw *binio.SectionWriter, r *core.Result) {
	writeI32s(sw, r.Answers)
	sw.F64Slab(r.Distances)
	writeI32s(sw, r.Candidates)
	writeStats(sw, &r.Stats)
}

func readResult(sr *binio.SectionReader) (core.Result, error) {
	var r core.Result
	r.Answers = readI32s(sr)
	if n := len(r.Answers); n > 0 {
		r.Distances = sr.F64Slab(n)
	}
	r.Candidates = readI32s(sr)
	readStats(sr, &r.Stats)
	return r, sr.Err()
}

// writeI32s encodes a slice with its nil-ness: MergeGlobal distinguishes
// nil Answers (verification skipped) from empty, and the differential
// oracle compares byte-for-byte.
func writeI32s(sw *binio.SectionWriter, v []int32) {
	if v == nil {
		sw.U8(0)
		return
	}
	sw.U8(1)
	sw.Uvarint(uint64(len(v)))
	sw.I32Slab(v)
}

func readI32s(sr *binio.SectionReader) []int32 {
	if !sr.Bool() {
		return nil
	}
	n := sr.Count(4, "int32 slice")
	out := sr.I32Slab(n)
	if out == nil && sr.Err() == nil {
		out = []int32{}
	}
	return out
}

// statsFields lists the Stats counters and times in wire order. The
// writer and the reader both walk it, so a field crosses both ways or
// not at all.
func statsFields(s *core.Stats) ([]*int, []*time.Duration) {
	return []*int{
			&s.QueryFragments, &s.UsedFragments, &s.ExpandedFragments,
			&s.PartitionSize, &s.StructCandidates, &s.RangeCandidates,
			&s.DistCandidates, &s.PrescreenRejects, &s.InvariantRejects,
			&s.VerifyCacheHits, &s.Verified, &s.VerifyNodes,
			&s.MemoHits, &s.Refreshed,
		},
		[]*time.Duration{&s.PlanTime, &s.FilterTime, &s.VerifyTime}
}

func writeStats(sw *binio.SectionWriter, s *core.Stats) {
	ints, times := statsFields(s)
	for _, p := range ints {
		sw.Varint(int64(*p))
	}
	for _, p := range times {
		sw.Varint(int64(*p))
	}
	sw.Bool(s.Partial)
}

func readStats(sr *binio.SectionReader, s *core.Stats) {
	ints, times := statsFields(s)
	for _, p := range ints {
		*p = int(sr.Varint())
	}
	for _, p := range times {
		*p = time.Duration(sr.Varint())
	}
	s.Partial = sr.Bool()
}

func writeNeighbors(sw *binio.SectionWriter, ns []core.Neighbor) {
	sw.Uvarint(uint64(len(ns)))
	for _, n := range ns {
		sw.U32(uint32(n.ID))
		sw.F64(n.Distance)
	}
}

func readNeighbors(sr *binio.SectionReader) ([]core.Neighbor, error) {
	n := sr.Count(12, "neighbor list")
	var out []core.Neighbor
	for i := 0; i < n; i++ {
		id := int32(sr.U32())
		d := sr.F64()
		out = append(out, core.Neighbor{ID: id, Distance: d})
	}
	return out, sr.Err()
}

// shardState is one shard replica's card (segment.Stats) as opStats
// carries it: what the coordinator sums for /stats, compares for replica
// lag and readmission, and what catch-up picks its source by.
type shardState struct {
	Shard int
	segment.Stats
}

// minCardBytes is the shortest encoding of a shardState: MutSeq and
// SnapshotSeq take 8 bytes each, every other field at least 1.
const minCardBytes = 36

func writeShardState(sw *binio.SectionWriter, st *shardState) {
	ss := &st.Store
	sw.Uvarint(uint64(st.Shard))
	sw.U64(st.MutSeq)
	sw.Varint(int64(st.MaxID))
	for _, v := range []int{st.Live, st.Delta, st.Tombstones, st.Index.Classes, st.Index.Fragments, st.Index.Sequences,
		st.Memory.StoreBytes, st.Memory.BitmapBytes, st.Memory.FingerprintBytes, ss.Recovery.ReplayedRecords} {
		sw.Varint(int64(v))
	}
	sw.Bool(st.Durable)
	sw.Varint(ss.WALRecords)
	sw.Varint(ss.WALBytes)
	sw.U64(ss.SnapshotSeq)
	sw.Varint(ss.Checkpoints)
	// Never checkpointed travels as 0: the zero time's UnixNano overflows.
	var last int64
	if !ss.LastCheckpoint.IsZero() {
		last = ss.LastCheckpoint.UnixNano()
	}
	sw.Varint(last)
	sw.Varint(ss.Recovery.DroppedBytes)
	sw.Bool(ss.Poisoned)
	sw.Uvarint(uint64(len(ss.PoisonReason)))
	sw.Bytes([]byte(ss.PoisonReason))
}

func readShardState(sr *binio.SectionReader) shardState {
	var st shardState
	ss := &st.Store
	st.Shard = int(sr.Uvarint())
	st.MutSeq = sr.U64()
	maxID := sr.Varint()
	if maxID < math.MinInt32 || maxID > math.MaxInt32 {
		sr.Malformed("max id")
	}
	st.MaxID = int32(maxID)
	for _, p := range []*int{&st.Live, &st.Delta, &st.Tombstones, &st.Index.Classes, &st.Index.Fragments, &st.Index.Sequences,
		&st.Memory.StoreBytes, &st.Memory.BitmapBytes, &st.Memory.FingerprintBytes, &ss.Recovery.ReplayedRecords} {
		*p = int(sr.Varint())
	}
	st.Durable = sr.Bool()
	ss.WALRecords = sr.Varint()
	ss.WALBytes = sr.Varint()
	ss.SnapshotSeq = sr.U64()
	ss.Checkpoints = sr.Varint()
	if last := sr.Varint(); last != 0 {
		ss.LastCheckpoint = time.Unix(0, last)
	}
	ss.Recovery.DroppedBytes = sr.Varint()
	ss.Poisoned = sr.Bool()
	ss.PoisonReason = string(sr.Bytes(int(sr.Uvarint())))
	return st
}

// nodeState is a node's full opStats response.
type nodeState struct {
	Epoch  int64 // process incarnation stamp; changes on restart
	Shards []shardState
}

func writeNodeState(sw *binio.SectionWriter, ns *nodeState) {
	sw.Varint(ns.Epoch)
	sw.Uvarint(uint64(len(ns.Shards)))
	for i := range ns.Shards {
		writeShardState(sw, &ns.Shards[i])
	}
}

func readNodeState(sr *binio.SectionReader) (nodeState, error) {
	var ns nodeState
	ns.Epoch = sr.Varint()
	n := sr.Count(minCardBytes, "shard state list")
	for i := 0; i < n; i++ {
		ns.Shards = append(ns.Shards, readShardState(sr))
	}
	return ns, sr.Err()
}

// state asks p for its node state, giving it statsTimeout at most.
func (p *peer) state(ctx context.Context) (nodeState, error) {
	ctx, cancel := context.WithTimeout(ctx, statsTimeout)
	defer cancel()
	var ns nodeState
	err := p.call(ctx, opStats, nil, func(sr *binio.SectionReader) (err error) {
		ns, err = readNodeState(sr)
		return err
	})
	return ns, err
}
