package main

import (
	"encoding/binary"
	"sync/atomic"
)

// Every event the harness publishes carries, at the head of its payload,
// what its observers need to check and time the delivery.
const (
	payIdx   = 0 // u32 event index in publish order
	payTopic = 4 // u32 topic index
	payStamp = 8 // i64 publish instant: ns on the workload's clock, or the round on the sharded kernel
	payHead  = 16
)

func newPayload(size, idx, topic int, stamp int64) []byte {
	p := make([]byte, max(size, payHead))
	binary.LittleEndian.PutUint32(p[payIdx:], uint32(idx))
	binary.LittleEndian.PutUint32(p[payTopic:], uint32(topic))
	binary.LittleEndian.PutUint64(p[payStamp:], uint64(stamp))
	return p
}

// deliveryLog is one node's record of what it has delivered: a bit per
// event. Only the node's own goroutine writes it while the system runs.
type deliveryLog struct {
	mask uint64 // topics the node subscribes to
	got  []uint64
}

// checks counts the deliveries that should never happen. They are
// atomics because nodes on different goroutines share them, and stay 0
// on a correct system, so they are never contended.
type checks struct {
	dups   atomic.Int64 // second delivery of an event to the same node
	strays atomic.Int64 // delivery to a node whose filters do not match
}

// record checks and notes one delivery, returning the event's index and
// publish stamp.
func (d *deliveryLog) record(payload []byte, c *checks) (idx int, stamp int64) {
	idx = int(binary.LittleEndian.Uint32(payload[payIdx:]))
	if d.mask>>binary.LittleEndian.Uint32(payload[payTopic:])&1 == 0 {
		c.strays.Add(1)
	}
	w, b := idx>>6, uint64(1)<<uint(idx&63)
	if d.got[w]&b != 0 {
		c.dups.Add(1)
	}
	d.got[w] |= b
	return idx, int64(binary.LittleEndian.Uint64(payload[payStamp:]))
}

func (d *deliveryLog) has(idx int) bool { return d.got[idx>>6]>>uint(idx&63)&1 == 1 }
