package mq

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"helios/internal/rpc"
)

// TestAppendBatchLocal checks the local batch append contract: records
// land contiguously in slice order, the first offset is returned, and a
// consumer reads them back byte-identical.
func TestAppendBatchLocal(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	topic, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topic.Append(0, 0, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	recs := make([]BatchRecord, 5)
	for i := range recs {
		recs[i] = BatchRecord{Key: uint64(i), Value: []byte(fmt.Sprintf("v%d", i))}
	}
	first, err := topic.AppendBatch(0, recs)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("first offset %d, want 1", first)
	}
	if topic.NextOffset(0) != 6 {
		t.Fatalf("next offset %d, want 6", topic.NextOffset(0))
	}
	cons := topic.NewConsumer(0, first)
	got, err := cons.Poll(10, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("polled %d records, want 5", len(got))
	}
	for i, r := range got {
		if r.Offset != first+int64(i) || r.Key != uint64(i) || !bytes.Equal(r.Value, recs[i].Value) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
}

// TestAppendBatchEmpty checks the no-op contract: an empty batch appends
// nothing and reports the next offset.
func TestAppendBatchEmpty(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	topic, _ := b.CreateTopic("t", 1)
	topic.Append(0, 1, []byte("x"))
	off, err := topic.AppendBatch(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if off != 1 || topic.NextOffset(0) != 1 {
		t.Fatalf("empty batch: off=%d next=%d, want 1/1", off, topic.NextOffset(0))
	}
}

// TestAppendBatchRemote drives the batch through the RPC framing: one
// frame in, contiguous offsets out, values read back intact after the
// frame buffer is recycled (the partition copies every value into its
// record log).
func TestAppendBatchRemote(t *testing.T) {
	local, rb, done := startRemote(t)
	defer done()
	rt, err := rb.OpenTopic("t", 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := []BatchRecord{
		{Key: 1, Value: []byte("a")},
		{Key: 2, Value: []byte("bb")},
		{Key: 3, Value: []byte("ccc")},
	}
	first, err := rt.AppendBatch(1, recs)
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Fatalf("first offset %d, want 0", first)
	}
	lt, ok := local.Topic("t")
	if !ok {
		t.Fatal("topic missing broker-side")
	}
	if lt.NextOffset(1) != 3 {
		t.Fatalf("broker next offset %d, want 3", lt.NextOffset(1))
	}
	cons := rt.OpenConsumer(1, 0)
	got, err := cons.Poll(10, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !bytes.Equal(got[2].Value, []byte("ccc")) || got[2].Key != 3 {
		t.Fatalf("remote batch read back: %+v", got)
	}
	// Empty remote batch: no frame-level surprises, next offset reported.
	off, err := rt.AppendBatch(1, nil)
	if err != nil || off != 3 {
		t.Fatalf("empty remote batch: off=%d err=%v", off, err)
	}
}

// TestAppendBatchBrokerBound checks the broker-side batch cap: a batch
// above MaxAppendBatch is refused whole, at the cap it lands.
func TestAppendBatchBrokerBound(t *testing.T) {
	b := NewBroker(Options{MaxAppendBatch: 2})
	defer b.Close()
	srv := rpc.NewServer()
	ServeBroker(b, srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rb, err := DialBroker(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	rt, err := rb.OpenTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := []BatchRecord{{Value: []byte("a")}, {Value: []byte("b")}, {Value: []byte("c")}}
	if _, err := rt.AppendBatch(0, recs); err == nil {
		t.Fatal("batch above broker bound should be refused")
	}
	if _, err := rt.AppendBatch(0, recs[:2]); err != nil {
		t.Fatalf("batch at bound: %v", err)
	}
	lt, _ := b.Topic("t")
	if lt.NextOffset(0) != 2 {
		t.Fatalf("refused batch left partial records: next=%d", lt.NextOffset(0))
	}
}
