package mq

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// recValue is the deterministic payload of offset off in generation gen,
// padded to size bytes.
func recValue(gen, off, size int) []byte {
	v := bytes.Repeat([]byte{byte(gen)}, size)
	binary.BigEndian.PutUint32(v, uint32(off))
	return v
}

// newTestPartition returns partition 0 of a fresh one-partition topic.
func newTestPartition(t *testing.T, opts Options) *partition {
	t.Helper()
	b := NewBroker(opts)
	t.Cleanup(func() { b.Close() })
	tp, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	return tp.parts[0]
}

// heldValues snapshots a set of fetched records alongside private copies
// of their Values, so later mutations of the log can be checked against
// what the consumer was handed.
type heldValues struct {
	recs   []Record
	copies [][]byte
}

func hold(recs []Record) heldValues {
	h := heldValues{recs: recs}
	for _, r := range recs {
		h.copies = append(h.copies, append([]byte(nil), r.Value...))
	}
	return h
}

func (h heldValues) check(t *testing.T, after string) {
	t.Helper()
	for i, r := range h.recs {
		if !bytes.Equal(r.Value, h.copies[i]) {
			t.Fatalf("after %s: offset %d value changed under the reader", after, r.Offset)
		}
	}
}

func appendN(t *testing.T, p *partition, gen, n, size int) {
	t.Helper()
	for i := 0; i < n; i++ {
		off := int(p.next)
		if _, err := p.append(uint64(off), recValue(gen, off, size)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecordLogValuesStable: Values handed out by fetch and readRange
// alias chunk bytes, so every kind of log mutation — later appends, a
// demote truncation, an appendAt divergence truncation and a retention
// trim — must leave them byte-identical.
func TestRecordLogValuesStable(t *testing.T) {
	p := newTestPartition(t, Options{RetainRecords: 200})
	appendN(t, p, 1, 100, 300)
	fetched, _, err := p.fetch(0, 100, 0)
	if err != nil || len(fetched) != 100 {
		t.Fatalf("fetch: %d recs, %v", len(fetched), err)
	}
	ranged, ok := p.readRange(50, 100)
	if !ok || len(ranged) != 50 {
		t.Fatalf("readRange: %d recs, ok=%v", len(ranged), ok)
	}
	held := []heldValues{hold(fetched), hold(ranged)}
	checkAll := func(after string) {
		t.Helper()
		for _, h := range held {
			h.check(t, after)
		}
	}

	// Later appends fill the tail chunk past the fetched bytes.
	appendN(t, p, 2, 100, 300)
	checkAll("later appends")

	// Demote abandons the tail above hw; the new leader's stream then
	// reuses those offsets with different values.
	p.mu.Lock()
	p.hw = 150
	p.mu.Unlock()
	tail, _ := p.readRange(150, 200)
	held = append(held, hold(tail))
	p.demote()
	if p.next != 150 {
		t.Fatalf("demote: next=%d, want 150", p.next)
	}
	p.mu.Lock()
	p.hw = -1 // back to the unreplicated gate-free default
	p.mu.Unlock()
	appendN(t, p, 3, 50, 300)
	checkAll("demote truncation")

	// appendAt diverging at offset 180 truncates and takes the frame.
	frame := []Record{{Offset: 180, Key: 9, Ts: 7, Value: recValue(4, 180, 300)}}
	if next, applied, err := p.appendAt(180, frame); err != nil || next != 181 || applied != 1 {
		t.Fatalf("appendAt: next=%d applied=%d err=%v", next, applied, err)
	}
	checkAll("appendAt divergence truncation")
	if got, _ := p.readRange(180, 181); !bytes.Equal(got[0].Value, frame[0].Value) {
		t.Fatal("appendAt did not take the leader's record")
	}

	// Crossing 2×RetainRecords trims the front and drops whole chunks.
	chunksBefore := len(p.log.chunks)
	appendN(t, p, 5, 300, 300)
	if p.head == 0 {
		t.Fatal("retention never trimmed")
	}
	checkAll("retention trim")
	if len(p.log.chunks) > chunksBefore+1 {
		t.Fatalf("trim kept %d chunks (had %d before appending)", len(p.log.chunks), chunksBefore)
	}
	recs, _, err := p.fetch(p.head, 1<<20, 0)
	if err != nil || int64(len(recs)) != p.next-p.head {
		t.Fatalf("post-trim fetch: %d recs, %v", len(recs), err)
	}
	for _, r := range recs {
		if !bytes.Equal(r.Value, recValue(5, int(r.Offset), 300)) {
			t.Fatalf("post-trim offset %d holds the wrong value", r.Offset)
		}
	}
}

// TestRecordLogChunkBoundaries reads records straddling chunk boundaries
// and a value larger than a whole chunk, which gets a chunk of its own.
func TestRecordLogChunkBoundaries(t *testing.T) {
	p := newTestPartition(t, Options{})
	sizes := []int{1000, 1000, 3 * chunkSize / 2, 7, 0, 1000}
	var want [][]byte
	for round := 0; round < 60; round++ {
		for _, size := range sizes {
			if round > 0 && size > chunkSize {
				size = 1000
			}
			v := recValue(round, int(p.next), max(size, 4))[:size]
			if _, err := p.append(uint64(p.next), v); err != nil {
				t.Fatal(err)
			}
			want = append(want, append([]byte(nil), v...))
		}
	}
	if len(p.log.chunks) < 3 {
		t.Fatalf("only %d chunks; the test must cross boundaries", len(p.log.chunks))
	}
	recs, next, err := p.fetch(0, len(want), 0)
	if err != nil || next != int64(len(want)) {
		t.Fatalf("fetch: next=%d err=%v", next, err)
	}
	for i, r := range recs {
		if r.Offset != int64(i) || r.Key != uint64(i) || !bytes.Equal(r.Value, want[i]) {
			t.Fatalf("offset %d: got key %d, %d value bytes", i, r.Key, len(r.Value))
		}
		if cap(r.Value) != len(r.Value) {
			t.Fatalf("offset %d: Value capacity %d exposes the next record", i, cap(r.Value))
		}
	}
	// Partial reads that start and end inside the log.
	for from := 1; from < len(want); from += 37 {
		got, ok := p.readRange(int64(from), int64(from+5))
		if !ok {
			t.Fatalf("readRange(%d) trimmed", from)
		}
		for k, r := range got {
			if !bytes.Equal(r.Value, want[from+k]) {
				t.Fatalf("readRange offset %d mismatch", from+k)
			}
		}
	}
}

// TestSegmentReplayRewindIntoRecordLog: a segment holding an offset rewind
// (a retried append's orphaned first attempt, a demoted leader's
// overwritten tail) replays into the chunked log with the later frames
// authoritative, and the reopened partition keeps appending after it.
func TestSegmentReplayRewindIntoRecordLog(t *testing.T) {
	dir := t.TempDir()
	b := NewBroker(Options{Dir: dir})
	tp, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	seg := tp.parts[0].seg
	frames := []struct {
		off int64
		val string
	}{
		{0, "a"}, {1, "b"}, {2, "stale-c"}, {3, "stale-d"},
		{2, "c"}, {3, "d"}, {4, "e"}, // rewind to 2
	}
	for _, f := range frames {
		if err := seg.append(Record{Offset: f.off, Key: uint64(f.off), Ts: 5, Value: []byte(f.val)}); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()

	b2 := NewBroker(Options{Dir: dir})
	defer b2.Close()
	tp2, err := b2.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp2.Append(0, 5, []byte("f")); err != nil {
		t.Fatal(err)
	}
	recs, _, err := tp2.parts[0].fetch(0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i, r := range recs {
		if r.Offset != int64(i) || r.Key != uint64(i) {
			t.Fatalf("record %d: offset %d key %d", i, r.Offset, r.Key)
		}
		got = append(got, string(r.Value))
	}
	if fmt.Sprint(got) != "[a b c d e f]" {
		t.Fatalf("replayed log %v, want [a b c d e f]", got)
	}
	if recs[0].Ts != 5 {
		t.Fatalf("replayed ts %d, want 5", recs[0].Ts)
	}
}

// TestRecordLogConcurrentAppendFetch races a producer reusing one value
// buffer (the broker copies on append) against a blocking consumer; every
// delivered value must match its offset. Run under -race in CI.
func TestRecordLogConcurrentAppendFetch(t *testing.T) {
	p := newTestPartition(t, Options{RetainRecords: 5000})
	const n = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64)
		for i := 0; i < n; i++ {
			copy(buf, recValue(1, i, 64))
			if _, err := p.append(uint64(i), buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var seen int64
	deadline := time.Now().Add(20 * time.Second)
	for seen < n && time.Now().Before(deadline) {
		recs, next, err := p.fetch(seen, 512, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if !bytes.Equal(r.Value, recValue(1, int(r.Offset), 64)) || r.Key != uint64(r.Offset) {
				t.Fatalf("offset %d delivered a foreign value", r.Offset)
			}
		}
		seen = next
	}
	wg.Wait()
	if seen != n {
		t.Fatalf("consumed %d of %d records", seen, n)
	}
}

// TestRecordLogHeapPerRecord pins the per-record cost of the packed log:
// 100k 20-byte appends must grow the live heap by less than 48 B each
// (a Record struct plus a separately allocated value cost ~81 B).
func TestRecordLogHeapPerRecord(t *testing.T) {
	const n = 100_000
	p := newTestPartition(t, Options{})
	val := make([]byte, 20)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(val, uint32(i))
		if _, err := p.append(uint64(i), val); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRecord := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("live heap per 20-byte record: %.1f B", perRecord)
	if perRecord >= 48 {
		t.Fatalf("live heap per 20-byte record %.1f B, want < 48", perRecord)
	}
	runtime.KeepAlive(p)
}
