package sampler

import (
	"bytes"
	"fmt"
	"io"

	"helios/internal/codec"
	"helios/internal/faultpoint"
	"helios/internal/fsx"
	"helios/internal/graph"
	"helios/internal/query"
	"helios/internal/sampling"
)

// Checkpointing (§4.1: the coordinator "periodically triggers checkpointing
// for fault tolerance"). A checkpoint serializes every shard's reservoir,
// feature and subscription tables. Each shard snapshots itself inside its
// own actor, so the per-shard image is consistent without stopping the
// worker; the checkpoint as a whole is eventually consistent across shards,
// which matches the system's consistency model (§6).

const checkpointMagic = "HELIOS-SAW-v1"

// Checkpoint writes the worker state to w. The worker must be started.
//
// Two barriers ride the FIFO actor mailboxes. A snapshot event per shard
// captures its state after every event enqueued before it; then a barrier
// per publish actor flushes its batch buffers and acks. Every publish the
// snapshotted events caused was enqueued before its shard acked, so once
// the publish barriers ack, those messages are on their topics: a crash
// right after Checkpoint never restores state whose messages serving has
// not received. lifeMu covers only the sends, so Stop cannot close a pool
// mid-send; a racing Stop drains queued barriers (and flushes the publish
// buffers itself) before the actors exit, so every ack still arrives.
func (w *Worker) Checkpoint(out io.Writer) error {
	w.lifeMu.Lock()
	if !w.started.Load() {
		w.lifeMu.Unlock()
		return fmt.Errorf("sampler: checkpoint requires a started worker")
	}
	cw := codec.NewWriter(1 << 16)
	cw.String(checkpointMagic)
	// Consumer positions are recorded before the shard barriers, so replay
	// from them covers every event not yet reflected in the snapshots
	// (at-least-once).
	cw.Varint(w.updOffset.Load())
	cw.Varint(w.subsOffset.Load())
	cw.Uvarint(uint64(len(w.shards)))
	snaps := make([]chan []byte, len(w.shards))
	for i := range snaps {
		snaps[i] = make(chan []byte, 1)
		w.sampling.SendTo(i, event{kind: evSnapshot, snap: snaps[i]})
	}
	w.lifeMu.Unlock()
	for _, ch := range snaps {
		cw.Bytes32(<-ch)
	}
	w.lifeMu.Lock()
	var done chan struct{}
	barriers := 0
	if w.started.Load() {
		barriers = w.publish.Workers()
		done = make(chan struct{}, barriers)
		for i := 0; i < barriers; i++ {
			w.publish.SendTo(i, outMsg{barrier: done})
		}
	}
	w.lifeMu.Unlock()
	for i := 0; i < barriers; i++ {
		<-done
	}
	// The crash boundary for non-file sinks (piped or streamed
	// checkpoints); file checkpoints get torn-write coverage from the
	// fsx-level "sampler.checkpoint.write" hook in CheckpointFile.
	if err := faultpoint.Inject("sampler.checkpoint.emit"); err != nil {
		return err
	}
	_, err := out.Write(cw.Bytes())
	return err
}

// CheckpointFile writes the checkpoint to path crash-safely via
// fsx.WriteFileAtomic (temp + fsync + rename + dir sync): a crash at any
// step leaves either the previous checkpoint intact or a torn .tmp that
// Restore never opens — never a torn file under path. The faultpoint
// "sampler.checkpoint.write" simulates a crash mid-write: half the image
// lands on disk and the writer aborts with no cleanup, exactly what
// losing the process there would leave behind.
func (w *Worker) CheckpointFile(path string) error {
	var buf bytes.Buffer
	if err := w.Checkpoint(&buf); err != nil {
		return err
	}
	return fsx.WriteFileAtomic(path, buf.Bytes(), "sampler.checkpoint.write")
}

// snapshotShard serializes one shard (runs inside the owning actor).
func (w *Worker) snapshotShard(st *shard) []byte {
	cw := codec.NewWriter(1 << 12)
	cw.Uvarint(uint64(len(st.reservoirs)))
	for hid, hopRes := range st.reservoirs {
		cw.Uvarint(uint64(hid))
		cw.Uvarint(uint64(len(hopRes)))
		for v, re := range hopRes {
			cw.Uvarint(uint64(v))
			cw.Varint(re.touch)
			cw.Uvarint(re.res.Seen())
			items := re.res.Items()
			cw.Uvarint(uint64(len(items)))
			for _, s := range items {
				cw.Uvarint(uint64(s.Neighbor))
				cw.Varint(int64(s.Ts))
				cw.Float32(s.Weight)
			}
		}
	}
	cw.Uvarint(uint64(len(st.features)))
	for v, fe := range st.features {
		cw.Uvarint(uint64(v))
		cw.Varint(fe.touch)
		cw.Float32s(fe.feat)
	}
	cw.Uvarint(uint64(len(st.sampleSubs)))
	for hid, vsubs := range st.sampleSubs {
		cw.Uvarint(uint64(hid))
		cw.Uvarint(uint64(len(vsubs)))
		for v, subs := range vsubs {
			cw.Uvarint(uint64(v))
			cw.Uvarint(uint64(len(subs)))
			for sew, cnt := range subs {
				cw.Varint(int64(sew))
				cw.Varint(int64(cnt))
			}
		}
	}
	cw.Uvarint(uint64(len(st.featSubs)))
	for v, subs := range st.featSubs {
		cw.Uvarint(uint64(v))
		cw.Uvarint(uint64(len(subs)))
		for sew, cnt := range subs {
			cw.Varint(int64(sew))
			cw.Varint(int64(cnt))
		}
	}
	return append([]byte(nil), cw.Bytes()...)
}

// Restore loads a checkpoint into a worker that has not been started.
// Entries are redistributed across the current shard count, so a worker may
// restart with a different SampleThreads setting.
func (w *Worker) Restore(in io.Reader) error {
	if w.started.Load() {
		return fmt.Errorf("sampler: restore requires a stopped worker")
	}
	data, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	r := codec.NewReader(data)
	if r.String() != checkpointMagic {
		return fmt.Errorf("sampler: bad checkpoint magic")
	}
	w.startUpd = r.Varint()
	w.startSubs = r.Varint()
	nShards := int(r.Uvarint())
	for i := 0; i < nShards; i++ {
		blob := r.Bytes32()
		if r.Err() != nil {
			return fmt.Errorf("sampler: truncated checkpoint: %w", r.Err())
		}
		if err := w.restoreShardBlob(blob); err != nil {
			return err
		}
	}
	return r.Finish()
}

// RestoreFile loads a checkpoint from path. The faultpoint
// "sampler.checkpoint.read" models an image that cannot be read back
// after a crash.
func (w *Worker) RestoreFile(path string) error {
	data, err := fsx.ReadFile(path, "sampler.checkpoint.read")
	if err != nil {
		return err
	}
	return w.Restore(bytes.NewReader(data))
}

// ReplayFloor reports the stream offsets a restored (not yet started)
// worker will resume its update and subscription consumers from — the
// warm-restart pin: everything below it is already reflected in the
// restored tables, so only the tail past it is replayed.
func (w *Worker) ReplayFloor() (upd, subs int64) {
	return w.startUpd, w.startSubs
}

func (w *Worker) shardOf(v graph.VertexID) *shard {
	return w.shards[graph.Hash64(uint64(v))%uint64(len(w.shards))]
}

func (w *Worker) restoreShardBlob(blob []byte) error {
	r := codec.NewReader(blob)
	nHops := int(r.Uvarint())
	for i := 0; i < nHops; i++ {
		hid := query.HopID(r.Uvarint())
		h, known := w.hops[hid]
		n := int(r.Uvarint())
		for j := 0; j < n; j++ {
			v := graph.VertexID(r.Uvarint())
			touch := r.Varint()
			seen := r.Uvarint()
			cnt := int(r.Uvarint())
			items := make([]sampling.Sample, 0, cnt)
			for k := 0; k < cnt; k++ {
				items = append(items, sampling.Sample{
					Neighbor: graph.VertexID(r.Uvarint()),
					Ts:       graph.Timestamp(r.Varint()),
					Weight:   r.Float32(),
				})
			}
			if r.Err() != nil {
				return fmt.Errorf("sampler: corrupt reservoir record: %w", r.Err())
			}
			if !known {
				continue // query no longer registered; drop its state
			}
			st := w.shardOf(v)
			hopRes := st.reservoirs[hid]
			if hopRes == nil {
				hopRes = make(map[graph.VertexID]*resEntry)
				st.reservoirs[hid] = hopRes
			}
			res := sampling.NewReservoir(h.oneHop.Strategy, h.oneHop.Fanout)
			res.Restore(items, seen)
			hopRes[v] = &resEntry{res: res, touch: touch}
		}
	}
	nFeat := int(r.Uvarint())
	for i := 0; i < nFeat; i++ {
		v := graph.VertexID(r.Uvarint())
		touch := r.Varint()
		feat := r.Float32s()
		if r.Err() != nil {
			return fmt.Errorf("sampler: corrupt feature record: %w", r.Err())
		}
		w.shardOf(v).features[v] = &featEntry{feat: feat, touch: touch}
	}
	nSubHops := int(r.Uvarint())
	for i := 0; i < nSubHops; i++ {
		hid := query.HopID(r.Uvarint())
		n := int(r.Uvarint())
		for j := 0; j < n; j++ {
			v := graph.VertexID(r.Uvarint())
			m := int(r.Uvarint())
			subs := make(map[int32]int32, m)
			for k := 0; k < m; k++ {
				sew := int32(r.Varint())
				cnt := int32(r.Varint())
				subs[sew] = cnt
			}
			if r.Err() != nil {
				return fmt.Errorf("sampler: corrupt subscription record: %w", r.Err())
			}
			st := w.shardOf(v)
			vsubs := st.sampleSubs[hid]
			if vsubs == nil {
				vsubs = make(map[graph.VertexID]map[int32]int32)
				st.sampleSubs[hid] = vsubs
			}
			vsubs[v] = subs
		}
	}
	nFeatSubs := int(r.Uvarint())
	for i := 0; i < nFeatSubs; i++ {
		v := graph.VertexID(r.Uvarint())
		m := int(r.Uvarint())
		subs := make(map[int32]int32, m)
		for k := 0; k < m; k++ {
			sew := int32(r.Varint())
			cnt := int32(r.Varint())
			subs[sew] = cnt
		}
		if r.Err() != nil {
			return fmt.Errorf("sampler: corrupt feature-subscription record: %w", r.Err())
		}
		w.shardOf(v).featSubs[v] = subs
	}
	return r.Finish()
}
