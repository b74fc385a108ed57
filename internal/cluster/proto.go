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
	opShardState
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

func writeStats(sw *binio.SectionWriter, s *core.Stats) {
	for _, v := range []int{
		s.QueryFragments, s.UsedFragments, s.ExpandedFragments,
		s.PartitionSize, s.StructCandidates, s.RangeCandidates,
		s.DistCandidates, s.PrescreenRejects, s.InvariantRejects,
		s.VerifyCacheHits, s.Verified, s.VerifyNodes,
	} {
		sw.Varint(int64(v))
	}
	sw.Varint(int64(s.PlanTime))
	sw.Varint(int64(s.FilterTime))
	sw.Varint(int64(s.VerifyTime))
	sw.Bool(s.Partial)
}

func readStats(sr *binio.SectionReader, s *core.Stats) {
	for _, p := range []*int{
		&s.QueryFragments, &s.UsedFragments, &s.ExpandedFragments,
		&s.PartitionSize, &s.StructCandidates, &s.RangeCandidates,
		&s.DistCandidates, &s.PrescreenRejects, &s.InvariantRejects,
		&s.VerifyCacheHits, &s.Verified, &s.VerifyNodes,
	} {
		*p = int(sr.Varint())
	}
	s.PlanTime = time.Duration(sr.Varint())
	s.FilterTime = time.Duration(sr.Varint())
	s.VerifyTime = time.Duration(sr.Varint())
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

// shardState is one shard replica's identity card, served by opStats
// (all local shards) and opShardState (one shard): everything the
// coordinator needs for /stats aggregation, replica-lag gauges, and
// catch-up decisions.
type shardState struct {
	Shard   int
	MutSeq  uint64
	Live    int
	MaxID   int32
	Classes int
	Frags   int
	Seqs    int
	Delta   int
	Tombs   int
	// Store, Bitmap and FPs are the bytes of index.Memory.
	Store  int
	Bitmap int
	FPs    int

	WALRecords      int64
	WALBytes        int64
	SnapshotSeq     uint64
	Checkpoints     int64
	LastCheckpoint  int64 // unix nanos, 0 = never
	ReplayedRecords int
	DroppedBytes    int64
	Poisoned        bool
	PoisonReason    string
}

func writeShardState(sw *binio.SectionWriter, st *shardState) {
	sw.Uvarint(uint64(st.Shard))
	sw.U64(st.MutSeq)
	sw.Varint(int64(st.Live))
	sw.Varint(int64(st.MaxID))
	for _, v := range []int{st.Classes, st.Frags, st.Seqs, st.Delta, st.Tombs, st.Store, st.Bitmap, st.FPs} {
		sw.Varint(int64(v))
	}
	sw.Varint(st.WALRecords)
	sw.Varint(st.WALBytes)
	sw.U64(st.SnapshotSeq)
	sw.Varint(st.Checkpoints)
	sw.Varint(st.LastCheckpoint)
	sw.Varint(int64(st.ReplayedRecords))
	sw.Varint(st.DroppedBytes)
	sw.Bool(st.Poisoned)
	sw.Uvarint(uint64(len(st.PoisonReason)))
	sw.Bytes([]byte(st.PoisonReason))
}

func readShardState(sr *binio.SectionReader) shardState {
	var st shardState
	st.Shard = int(sr.Uvarint())
	st.MutSeq = sr.U64()
	st.Live = int(sr.Varint())
	maxID := sr.Varint()
	if maxID < math.MinInt32 || maxID > math.MaxInt32 {
		sr.Malformed("max id")
	}
	st.MaxID = int32(maxID)
	for _, p := range []*int{&st.Classes, &st.Frags, &st.Seqs, &st.Delta, &st.Tombs, &st.Store, &st.Bitmap, &st.FPs} {
		*p = int(sr.Varint())
	}
	st.WALRecords = sr.Varint()
	st.WALBytes = sr.Varint()
	st.SnapshotSeq = sr.U64()
	st.Checkpoints = sr.Varint()
	st.LastCheckpoint = sr.Varint()
	st.ReplayedRecords = int(sr.Varint())
	st.DroppedBytes = sr.Varint()
	st.Poisoned = sr.Bool()
	st.PoisonReason = string(sr.Bytes(int(sr.Uvarint())))
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
	n := sr.Count(10, "shard state list")
	for i := 0; i < n; i++ {
		ns.Shards = append(ns.Shards, readShardState(sr))
	}
	return ns, sr.Err()
}
