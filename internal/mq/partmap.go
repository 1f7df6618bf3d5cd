package mq

import (
	"fmt"
	"time"

	"helios/internal/codec"
	"helios/internal/rpc"
)

// Partition-map plumbing shared by brokers, the coordinator's failover
// controller (internal/coord) and cluster clients: who leads each
// (topic, partition), versioned so promotions supersede stale views.
//
// Leadership defaults to partition % len(peers) — a static spread every
// component computes identically with no coordination — and the map holds
// only the overrides failover promotions create. A map is applied
// version-monotonically everywhere: a broker or client never moves from a
// newer view to an older one.

// PartKey addresses one partition of one topic.
type PartKey struct {
	Topic     string
	Partition int
}

// PartMap is the versioned leadership table. The zero value (version 0,
// no overrides) is the deployment-time default assignment.
type PartMap struct {
	Version int64
	Leaders map[PartKey]int
}

// Leader returns the peer index leading (topic, partition) under this map,
// falling back to the static partition % peers spread when no override
// exists.
func (pm *PartMap) Leader(topic string, partition, peers int) int {
	if pm != nil && pm.Leaders != nil {
		if l, ok := pm.Leaders[PartKey{Topic: topic, Partition: partition}]; ok {
			return l
		}
	}
	if peers <= 0 {
		return 0
	}
	return partition % peers
}

// Clone deep-copies the map so callers can mutate their copy freely.
func (pm PartMap) Clone() PartMap {
	out := PartMap{Version: pm.Version, Leaders: make(map[PartKey]int, len(pm.Leaders))}
	for k, v := range pm.Leaders {
		out.Leaders[k] = v
	}
	return out
}

// ReplEntry is one partition's replication position as reported by a
// broker: Next is the offset its log would assign to the next record.
type ReplEntry struct {
	Topic     string
	Partition int
	Next      int64
}

// RPC methods of the replication control plane. MethodReplicate and
// MethodLead are served by every broker (ServeReplication); MethodPartMap
// and MethodReplStatus are served by the coordinator
// (coord.Failover.ServeRPC).
const (
	// MethodReplicate streams leader appends to a follower broker.
	MethodReplicate = "mq.replicate"
	// MethodLead pushes a versioned partition map to a broker.
	MethodLead = "mq.lead"
	// MethodPartMap returns the coordinator's current partition map.
	MethodPartMap = "coord.partmap"
	// MethodReplStatus reports one broker's per-partition offsets to the
	// coordinator (and renews the broker's lease there).
	MethodReplStatus = "coord.replstatus"
)

// EncodePartMap serializes a partition map.
func EncodePartMap(pm PartMap) []byte {
	w := codec.NewWriter(16 + 24*len(pm.Leaders))
	w.Varint(pm.Version)
	w.Uvarint(uint64(len(pm.Leaders)))
	for k, v := range pm.Leaders {
		w.String(k.Topic)
		w.Uvarint(uint64(k.Partition))
		w.Uvarint(uint64(v))
	}
	return w.Bytes()
}

// DecodePartMap parses a partition map.
func DecodePartMap(buf []byte) (PartMap, error) {
	r := codec.NewReader(buf)
	pm := PartMap{Version: r.Varint(), Leaders: make(map[PartKey]int)}
	n := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return PartMap{}, err
	}
	if n > r.Remaining() {
		return PartMap{}, codec.ErrShortBuffer
	}
	for i := 0; i < n; i++ {
		k := PartKey{Topic: r.String(), Partition: int(r.Uvarint())}
		pm.Leaders[k] = int(r.Uvarint())
	}
	if err := r.Finish(); err != nil {
		return PartMap{}, err
	}
	return pm, nil
}

// EncodeReplStatus serializes one broker's replication report. every is
// the reporter's cadence: the coordinator's lease rule judges the broker's
// silence in multiples of it.
func EncodeReplStatus(peer int, every time.Duration, entries []ReplEntry) []byte {
	w := codec.NewWriter(24 + 24*len(entries))
	w.Uvarint(uint64(peer))
	w.Varint(int64(every))
	w.Uvarint(uint64(len(entries)))
	for _, e := range entries {
		w.String(e.Topic)
		w.Uvarint(uint64(e.Partition))
		w.Varint(e.Next)
	}
	return w.Bytes()
}

// DecodeReplStatus parses a replication report. A report without a
// positive cadence is malformed: it could never keep a lease alive.
func DecodeReplStatus(buf []byte) (peer int, every time.Duration, entries []ReplEntry, err error) {
	r := codec.NewReader(buf)
	peer = int(r.Uvarint())
	every = time.Duration(r.Varint())
	n := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return 0, 0, nil, err
	}
	if every <= 0 {
		return 0, 0, nil, fmt.Errorf("mq: replication report cadence %v", every)
	}
	if n > r.Remaining() {
		return 0, 0, nil, codec.ErrShortBuffer
	}
	entries = make([]ReplEntry, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, ReplEntry{
			Topic: r.String(), Partition: int(r.Uvarint()), Next: r.Varint(),
		})
	}
	if err := r.Finish(); err != nil {
		return 0, 0, nil, err
	}
	return peer, every, entries, nil
}

// FetchPartMap asks a coordinator endpoint for its current partition map.
func FetchPartMap(c *rpc.Client, timeout time.Duration) (PartMap, error) {
	resp, err := c.Call(MethodPartMap, nil, timeout)
	if err != nil {
		return PartMap{}, err
	}
	return DecodePartMap(resp)
}

// SendLead pushes a partition map to a broker (promotion or demotion sync).
func SendLead(c *rpc.Client, pm PartMap, timeout time.Duration) error {
	_, err := c.Call(MethodLead, EncodePartMap(pm), timeout)
	return err
}

// ReportReplStatus reports a broker's per-partition offsets to the
// coordinator, declaring that it reports every `every`. A report still
// unanswered after one cadence is abandoned: the next one supersedes it.
func ReportReplStatus(c *rpc.Client, peer int, every time.Duration, entries []ReplEntry) error {
	_, err := c.Call(MethodReplStatus, EncodeReplStatus(peer, every, entries), every)
	return err
}

// notLeaderError is the concrete wrapper so the message carries the
// partition and current-leader hint across the RPC boundary.
func notLeaderError(topic string, part, leader int) error {
	return fmt.Errorf("%w for %s/%d (leader=%d)", ErrNotLeader, topic, part, leader)
}
