package mq

import "encoding/binary"

// chunkSize is the capacity of one record-log chunk. A record whose
// encoding does not fit a fresh chunk gets a chunk of its own.
const chunkSize = 64 << 10

// recordLog holds a partition's retained records packed into append-only
// byte chunks, Kafka-style, instead of one Record struct and one value
// allocation per offset. Each record is encoded as uvarint key, varint
// append timestamp, uvarint value length and the value bytes; pos holds
// one pointer-free position per retained offset, so the garbage collector
// never scans the log.
//
// Chunk bytes are never rewritten once written: reads hand out Values that
// alias them, truncation only shortens pos (later appends land after the
// abandoned bytes), and retention drops whole chunks. A Value handed to a
// consumer therefore stays byte-identical for as long as it is referenced.
type recordLog struct {
	// chunks[i] has sequence number base+i; only the last one grows.
	chunks [][]byte
	base   uint64
	// pos[i] locates the i-th retained record: chunk sequence number in
	// the high 32 bits, byte offset within the chunk in the low 32.
	pos []uint64
}

// len returns the number of retained records.
func (l *recordLog) len() int { return len(l.pos) }

// add copies one record into the tail chunk, opening a new chunk when the
// encoding does not fit.
func (l *recordLog) add(key uint64, ts int64, value []byte) {
	need := 3*binary.MaxVarintLen64 + len(value)
	n := len(l.chunks)
	if n == 0 || cap(l.chunks[n-1])-len(l.chunks[n-1]) < need {
		l.chunks = append(l.chunks, make([]byte, 0, max(chunkSize, need)))
		n++
	}
	c := l.chunks[n-1]
	l.pos = append(l.pos, (l.base+uint64(n-1))<<32|uint64(len(c)))
	c = binary.AppendUvarint(c, key)
	c = binary.AppendVarint(c, ts)
	c = binary.AppendUvarint(c, uint64(len(value)))
	l.chunks[n-1] = append(c, value...)
}

// at decodes the i-th retained record (Offset left zero). The Value
// aliases chunk bytes and is capped at its own length, so appending to it
// can never reach the next record.
func (l *recordLog) at(i int) Record {
	p := l.pos[i]
	c := l.chunks[p>>32-l.base][uint32(p):]
	key, n := binary.Uvarint(c)
	c = c[n:]
	ts, n := binary.Varint(c)
	c = c[n:]
	size, n := binary.Uvarint(c)
	c = c[n:]
	return Record{Key: key, Ts: ts, Value: c[:size:size]}
}

// read decodes records [i, j) into a fresh slice, numbering them from
// offset first.
func (l *recordLog) read(i, j int, first int64) []Record {
	out := make([]Record, j-i)
	for k := range out {
		out[k] = l.at(i + k)
		out[k].Offset = first + int64(k)
	}
	return out
}

// truncate keeps the first n records. Chunk bytes are left alone: readers
// may still hold Values aliasing the abandoned records.
func (l *recordLog) truncate(n int) { l.pos = l.pos[:n] }

// dropFront discards the oldest drop records, keeping at least one: the
// position index is copied into a fresh slice (so its old backing array is
// freed) and every chunk wholly below the new first record is released.
func (l *recordLog) dropFront(drop int) {
	kept := make([]uint64, len(l.pos)-drop)
	copy(kept, l.pos[drop:])
	l.pos = kept
	first := kept[0]>>32 - l.base
	clear(l.chunks[:first])
	l.chunks = l.chunks[first:]
	l.base += first
}
