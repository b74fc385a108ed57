package cluster

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pis/internal/binio"
	"pis/internal/core"
	"pis/internal/graph"
	"pis/internal/segment"
)

// frameCodecs pairs each decoder a node runs on a peer's section payload
// with the writer of what it decodes.
var frameCodecs = []struct {
	name   string
	decode func(*binio.SectionReader) (any, error)
	encode func(*binio.SectionWriter, any)
}{
	{"result",
		func(sr *binio.SectionReader) (any, error) { return readResult(sr) },
		func(sw *binio.SectionWriter, v any) { r := v.(core.Result); writeResult(sw, &r) }},
	{"neighbors",
		func(sr *binio.SectionReader) (any, error) { return readNeighbors(sr) },
		func(sw *binio.SectionWriter, v any) { writeNeighbors(sw, v.([]core.Neighbor)) }},
	{"node state",
		func(sr *binio.SectionReader) (any, error) { return readNodeState(sr) },
		func(sw *binio.SectionWriter, v any) { ns := v.(nodeState); writeNodeState(sw, &ns) }},
	{"graph",
		func(sr *binio.SectionReader) (any, error) { return readGraph(sr) },
		func(sw *binio.SectionWriter, v any) { sw.Bytes(apGraph(nil, v.(*graph.Graph))) }},
}

// allocPerByte bounds what a decode may allocate per payload byte. The
// widest expansion is a node state's: a shardState per minCardBytes the
// count check lets it claim, in a slice append may have doubled.
const allocPerByte = 64

// framePayload returns the section payload write produces.
func framePayload(tb testing.TB, write func(*binio.SectionWriter)) []byte {
	var buf bytes.Buffer
	sw := binio.NewSectionWriter(&buf)
	write(sw)
	if err := sw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()[4 : buf.Len()-4] // drop the length and the checksum
}

// frameSection frames payload and readies a reader on it, as a node's
// connection reader is readied on a peer's section.
func frameSection(tb testing.TB, payload []byte) *binio.SectionReader {
	var buf bytes.Buffer
	sw := binio.NewSectionWriter(&buf)
	sw.Bytes(payload)
	if err := sw.Flush(); err != nil {
		tb.Fatal(err)
	}
	sr := binio.NewSectionReader(&buf)
	if err := sr.Next(); err != nil {
		tb.Fatal(err)
	}
	return sr
}

// realFrames returns, per frameCodecs entry, payloads a node really sends:
// a search result and kNN neighbours from a segment, the state of a node
// hosting a durable shard that has seen an insert and a delete, and graphs.
func realFrames(f *testing.F) [][][]byte {
	graphs := testGraphs(30, 3)
	seg, err := segment.New(graphs[:24], 0, testFeatures(f, graphs[:24]), testConfig())
	if err == nil {
		err = seg.Persist(f.TempDir())
	}
	if err != nil {
		f.Fatal(err)
	}
	defer seg.Close()
	if _, err := seg.Insert(graphs[24], 24); err != nil {
		f.Fatal(err)
	}
	if _, err := seg.Delete(3); err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	res, err := seg.SearchCtx(ctx, graphs[5], 2)
	if err != nil {
		f.Fatal(err)
	}
	ns, err := seg.SearchKNNCtx(ctx, graphs[7], 4, 4)
	if err != nil {
		f.Fatal(err)
	}
	node, err := NewNode("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	defer node.Close()
	node.SetShard(0, seg)
	b := graph.NewBuilder(3, 2)
	b.AddWeightedVertex(1, 0.5)
	b.AddWeightedVertex(2, -1)
	b.AddWeightedVertex(0, 3)
	b.AddWeightedEdge(0, 1, 1, 2.25)
	b.AddWeightedEdge(1, 2, 0, 0)
	weighted := b.MustBuild()

	frame := func(v any, i int) []byte {
		return framePayload(f, func(sw *binio.SectionWriter) { frameCodecs[i].encode(sw, v) })
	}
	return [][][]byte{
		{frame(res, 0), frame(core.Result{}, 0)},
		{frame(ns, 1), frame([]core.Neighbor(nil), 1)},
		{framePayload(f, node.writeState), frame(nodeState{Epoch: -7}, 2), frame(poisonedNodeState(), 2)},
		{frame(graphs[9], 3), frame(weighted, 3)},
	}
}

// poisonedNodeState is a node hosting two durable shards with poisoned
// stores, one checkpointed and one not since it was opened: the card
// fields a healthy node's state leaves at zero.
func poisonedNodeState() nodeState {
	card := segment.Stats{MutSeq: 9, Live: 7, MaxID: 12, Delta: 2, Tombstones: 1, Durable: true}
	card.Store.WALRecords, card.Store.WALBytes, card.Store.SnapshotSeq = 3, 250, 4
	card.Store.Recovery.ReplayedRecords = 2
	card.Store.Poisoned, card.Store.PoisonReason = true, "wal: fsync: input/output error"
	never := card
	card.Store.Checkpoints, card.Store.LastCheckpoint = 1, time.Unix(1_700_000_000, 123_456_789)
	return nodeState{Epoch: 5, Shards: []shardState{{Shard: 1, Stats: card}, {Shard: 4, Stats: never}}}
}

// TestCardCrossesTheWire: a card decodes to what was encoded, a zero
// LastCheckpoint included, and the zero card's encoding is minCardBytes
// long, the count check's bound.
func TestCardCrossesTheWire(t *testing.T) {
	want := poisonedNodeState()
	got, err := readNodeState(frameSection(t, framePayload(t, func(sw *binio.SectionWriter) { writeNodeState(sw, &want) })))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Shards) != 2 || !got.Shards[0].Store.LastCheckpoint.Equal(want.Shards[0].Store.LastCheckpoint) || !got.Shards[1].Store.LastCheckpoint.IsZero() {
		t.Fatalf("last checkpoints decode as %+v, want %v and the zero time", got.Shards, want.Shards[0].Store.LastCheckpoint)
	}
	got.Shards[0].Store.LastCheckpoint = want.Shards[0].Store.LastCheckpoint
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, encoded %+v", got, want)
	}
	if n := len(framePayload(t, func(sw *binio.SectionWriter) { writeShardState(sw, &shardState{}) })); n != minCardBytes {
		t.Fatalf("the zero card encodes to %d bytes, minCardBytes is %d", n, minCardBytes)
	}
}

// TestResultCrossesTheWire: a search result whose every Stats field is
// non-zero decodes to what was encoded. The fields are set by reflection,
// so a Stats field the codec does not carry fails here.
func TestResultCrossesTheWire(t *testing.T) {
	want := core.Result{Answers: []int32{3, 9}, Distances: []float64{0.5, 2.25}, Candidates: []int32{3, 4, 9}}
	st := reflect.ValueOf(&want.Stats).Elem()
	for i := range st.NumField() {
		switch f := st.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i+1) * 1000)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Stats.%s is a %s, which this test cannot set", st.Type().Field(i).Name, f.Kind())
		}
	}
	got, err := readResult(frameSection(t, framePayload(t, func(sw *binio.SectionWriter) { writeResult(sw, &want) })))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, encoded %+v", got.Stats, want.Stats)
	}
}

// FuzzClusterFrames feeds arbitrary section payloads to the decoders of
// the shard-RPC wire format (results, kNN neighbours, node state, graphs).
// Each call must return an error or decode a value that the matching
// writer re-encodes to exactly the bytes it consumed, and it may allocate
// no more than the payload could hold. A decoded graph is one
// graph.Builder accepts: the seed of a 2-vertex graph listing edge (0,1)
// twice, which re-encodes to its own bytes, must be refused.
func FuzzClusterFrames(f *testing.F) {
	for i, frames := range realFrames(f) {
		for _, p := range frames {
			if _, err := frameCodecs[i].decode(frameSection(f, p)); err != nil {
				f.Fatalf("%s: a real frame does not decode: %v", frameCodecs[i].name, err)
			}
			f.Add(uint8(i), p)
		}
	}
	parallel := []byte{0, 2, 2, 0, 0, 0, 1, 0, 0, 1, 0}
	f.Add(uint8(3), framePayload(f, func(sw *binio.SectionWriter) {
		sw.Uvarint(uint64(len(parallel)))
		sw.Bytes(parallel)
	}))
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		codec := frameCodecs[int(kind)%len(frameCodecs)]
		sr := frameSection(t, payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := codec.decode(sr)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(allocPerByte*len(payload)+64<<10) {
			t.Fatalf("%s: decoding %d bytes allocated %d", codec.name, len(payload), alloc)
		}
		if err != nil {
			return
		}
		consumed := payload[:len(payload)-sr.Remaining()]
		if enc := framePayload(t, func(sw *binio.SectionWriter) { codec.encode(sw, v) }); !bytes.Equal(enc, consumed) {
			t.Fatalf("%s: decoded %x, re-encoded %x", codec.name, consumed, enc)
		}
		if g, ok := v.(*graph.Graph); ok {
			b := graph.NewBuilder(g.N(), g.M())
			for u := range g.N() {
				b.AddWeightedVertex(g.VLabelAt(u), g.VWeightAt(u))
			}
			for e := range g.M() {
				ed := g.EdgeAt(e)
				b.AddWeightedEdge(ed.U, ed.V, ed.Label, ed.Weight)
			}
			if _, err := b.Build(); err != nil {
				t.Fatalf("decoded %x into a graph Builder refuses: %v", consumed, err)
			}
		}
	})
}
