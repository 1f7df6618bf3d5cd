package mq

import (
	"reflect"
	"testing"
	"time"

	"helios/internal/codec"
)

func TestReplStatusRoundTrip(t *testing.T) {
	entries := []ReplEntry{{Topic: "updates", Partition: 0, Next: 7}, {Topic: "samples", Partition: 3, Next: 0}}
	peer, every, got, err := DecodeReplStatus(EncodeReplStatus(2, 250*time.Millisecond, entries))
	if err != nil {
		t.Fatal(err)
	}
	if peer != 2 || every != 250*time.Millisecond || !reflect.DeepEqual(got, entries) {
		t.Fatalf("decoded peer=%d every=%v entries=%+v", peer, every, got)
	}
}

// Every strict prefix of a report is rejected, as is a report whose
// declared cadence could never keep a lease alive.
func TestDecodeReplStatusMalformed(t *testing.T) {
	frame := EncodeReplStatus(1, 100*time.Millisecond, []ReplEntry{{Topic: "t", Partition: 1, Next: 9}})
	for n := 0; n < len(frame); n++ {
		if _, _, _, err := DecodeReplStatus(frame[:n]); err == nil {
			t.Fatalf("truncated report (%d/%d bytes) decoded", n, len(frame))
		}
	}
	if _, _, _, err := DecodeReplStatus(append(frame, 0)); err == nil {
		t.Fatal("report with trailing bytes decoded")
	}
	for _, every := range []time.Duration{0, -time.Second} {
		if _, _, _, err := DecodeReplStatus(EncodeReplStatus(1, every, nil)); err == nil {
			t.Fatalf("report with cadence %v decoded", every)
		}
	}
	// A huge entry count must fail the short-buffer check before
	// allocating.
	w := codec.NewWriter(16)
	w.Uvarint(1)
	w.Varint(int64(time.Second))
	w.Uvarint(1 << 40)
	if _, _, _, err := DecodeReplStatus(w.Bytes()); err == nil {
		t.Fatal("report with a huge entry count decoded")
	}
}
