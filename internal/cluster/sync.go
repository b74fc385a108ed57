// Replica catch-up: how a restarted node gets level with its peers
// before serving again. The cheap path ships the WAL records the local
// replica missed (every mutation since its sequence number) and
// replays them through the normal Insert/Delete path, so they are
// re-logged locally and the sequence number advances exactly as it did
// on the peer. When the gap predates the peer's active WAL — the peer
// checkpointed past it — the whole durable file set streams over
// instead (snapshot + WAL + index side file), staged by store.Install
// and made visible atomically by writing the MANIFEST last.
//
// The node runs this at boot, before it registers the shard; the
// coordinator's readmission check (sequence equality under the
// mutation lock) is what actually lets the replica serve again, so a
// race between catch-up and a concurrent mutation only delays
// readmission to the next health sweep — it can never readmit a stale
// copy.

package cluster

import (
	"context"
	"fmt"
	"io"
	"os"

	"pis/internal/binio"
	"pis/internal/segment"
	"pis/internal/store"
)

// maxSyncRounds bounds catch-up iterations; each round either closes
// the gap or falls back to a full transfer, so hitting the bound means
// mutations are arriving faster than we can replay them.
const maxSyncRounds = 32

// SyncShard brings the local replica of global shard idx level with its
// peer replicas. seg is the locally recovered segment (nil when this
// node has no copy yet); dir is its store directory; peerAddrs are the
// other replicas. It returns the caught-up segment — which may be a new
// one opened from transferred files — or (nil, nil) when no peer has
// the shard either, in which case the caller bootstraps it fresh.
func SyncShard(ctx context.Context, seg *segment.Segment, dir string, cfg segment.Config, idx int, peerAddrs []string) (*segment.Segment, error) {
	peers := make([]*peer, len(peerAddrs))
	for i, addr := range peerAddrs {
		peers[i] = newPeer(addr)
	}
	defer func() {
		for _, p := range peers {
			p.closeIdle()
		}
	}()

	for round := 0; round < maxSyncRounds; round++ {
		var local uint64
		if seg != nil {
			local = seg.MutSeq()
		}
		src, remote := freshestPeer(ctx, peers, idx)
		if src == nil || (seg != nil && remote <= local) {
			return seg, nil // level with (or ahead of) every reachable peer
		}

		if seg == nil {
			fresh, err := fullTransfer(ctx, src, idx, dir, cfg)
			if err != nil {
				return nil, err
			}
			seg = fresh
			continue // verify the transferred copy is level
		}

		mode, recs, err := walAfter(ctx, src, idx, local)
		if err != nil {
			return seg, fmt.Errorf("cluster: shard %d catch-up from %s: %w", idx, src.addr, err)
		}
		switch mode {
		case walShipRecords:
			for _, rec := range recs {
				switch rec.Op {
				case store.OpInsert:
					if _, err := seg.Insert(rec.Graph, rec.ID); err != nil {
						return seg, fmt.Errorf("cluster: shard %d replay insert %d: %w", idx, rec.ID, err)
					}
				case store.OpDelete:
					if _, err := seg.Delete(rec.ID); err != nil {
						return seg, fmt.Errorf("cluster: shard %d replay delete %d: %w", idx, rec.ID, err)
					}
				default:
					return seg, fmt.Errorf("cluster: shard %d: unknown shipped op %d", idx, rec.Op)
				}
			}
		case walShipFull:
			// The gap predates the peer's active WAL: replace our copy with
			// the peer's file set wholesale.
			if err := seg.Close(); err != nil {
				return nil, fmt.Errorf("cluster: shard %d: close for transfer: %w", idx, err)
			}
			seg = nil
			if err := os.RemoveAll(dir); err != nil {
				return nil, fmt.Errorf("cluster: shard %d: clear %s: %w", idx, dir, err)
			}
			fresh, err := fullTransfer(ctx, src, idx, dir, cfg)
			if err != nil {
				return nil, err
			}
			seg = fresh
		default:
			return seg, fmt.Errorf("cluster: shard %d: unknown ship mode %d", idx, mode)
		}
	}
	return seg, fmt.Errorf("cluster: shard %d: still behind after %d catch-up rounds", idx, maxSyncRounds)
}

// freshestPeer returns the reachable peer replica with the highest
// sequence number for shard idx (nil when none has it).
func freshestPeer(ctx context.Context, peers []*peer, idx int) (*peer, uint64) {
	var best *peer
	var bestSeq uint64
	for _, p := range peers {
		ns, err := p.state(ctx)
		if err != nil {
			continue
		}
		for _, st := range ns.Shards {
			if st.Shard == idx && (best == nil || st.MutSeq > bestSeq) {
				best, bestSeq = p, st.MutSeq
			}
		}
	}
	return best, bestSeq
}

// walAfter fetches the mutations peer p applied to shard idx after
// sequence number `after`.
func walAfter(ctx context.Context, p *peer, idx int, after uint64) (mode byte, recs []store.Record, err error) {
	req := apUv(nil, uint64(idx))
	req = apU64(req, after)
	err = p.call(ctx, opWALAfter, req, func(sr *binio.SectionReader) error {
		mode = sr.U8()
		if mode != walShipRecords {
			return sr.Err()
		}
		n := sr.Count(5, "shipped wal records") // op byte + id; inserts add the graph
		for i := 0; i < n; i++ {
			rec := store.Record{Op: sr.U8(), ID: int32(sr.U32())}
			if rec.Op == store.OpInsert {
				g, gerr := readGraph(sr)
				if gerr != nil {
					return gerr
				}
				rec.Graph = g
			}
			recs = append(recs, rec)
		}
		return sr.Err()
	})
	if err != nil {
		return 0, nil, err
	}
	return mode, recs, nil
}

// fullTransfer streams shard idx's durable file set from peer p into
// dir and opens the result. The install stages every file first and
// commits the MANIFEST last, so a transfer cut mid-stream leaves no
// store at all — the next attempt starts clean.
func fullTransfer(ctx context.Context, p *peer, idx int, dir string, cfg segment.Config) (*segment.Segment, error) {
	inst, err := store.NewInstall(dir, store.OSFS)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d: stage transfer in %s: %w", idx, dir, err)
	}
	err = p.call(ctx, opFetchFiles, apUv(nil, uint64(idx)), func(sr *binio.SectionReader) error {
		nfiles := int(sr.Uvarint())
		manifest := append([]byte(nil), sr.Bytes(sr.Count(1, "manifest"))...)
		if err := sr.Err(); err != nil {
			return err
		}
		for i := 0; i < nfiles; i++ {
			if err := sr.Next(); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return err
			}
			name := string(sr.Bytes(int(sr.Uvarint())))
			size := sr.U64()
			if err := sr.Err(); err != nil {
				return err
			}
			if err := receiveFile(inst, sr, name, size); err != nil {
				return err
			}
		}
		return inst.Commit(manifest)
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d: transfer from %s: %w", idx, p.addr, err)
	}
	seg, err := segment.OpenDurable(dir, cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d: open transferred store: %w", idx, err)
	}
	return seg, nil
}

// receiveFile reads size bytes of chunk sections into a staged file.
func receiveFile(inst *store.Install, sr *binio.SectionReader, name string, size uint64) error {
	f, err := inst.CreateFile(name)
	if err != nil {
		return err
	}
	var got uint64
	for got < size {
		if err := sr.Next(); err != nil {
			f.Close()
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		chunk := sr.Bytes(sr.Remaining())
		if err := sr.Err(); err != nil {
			f.Close()
			return err
		}
		if len(chunk) == 0 || uint64(len(chunk)) > size-got {
			f.Close()
			return fmt.Errorf("cluster: %s: bad transfer chunk (%d bytes, %d expected)", name, len(chunk), size-got)
		}
		if _, err := f.Write(chunk); err != nil {
			f.Close()
			return err
		}
		got += uint64(len(chunk))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
