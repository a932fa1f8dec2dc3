package core

import (
	"sync/atomic"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/wire"
)

// wireMsg is the payload FairGossip sends over simnet: a wire.Msg, charged
// its Size — the length internal/wire encodes it to (TestChargedIsEncoded)
// — plus the envelope pool's bookkeeping. Sim-huge keeps a hundred
// thousand in flight, so what only some modes set lives behind Msg.Parts.
type wireMsg struct {
	wire.Msg
	refs atomic.Int32 // a pooled envelope's reference count (pool.go)
	pool *msgPool     // nil: a plain allocated message; Retain/Release no-op on it
}

// extend returns the parts for writing, allocating them on first use.
func (m *wireMsg) extend() *wire.Parts {
	if m.Parts == nil {
		m.Parts = new(wire.Parts)
	}
	return m.Parts
}

// A gossip message is the machine's protocol.Batch, events materialised.

func (m *wireMsg) Len() int { return len(m.Events) }

func (m *wireMsg) Head(i int) (pubsub.EventID, int) {
	return m.Events[i].ID, m.Events[i].WireSize()
}

func (m *wireMsg) Event(i int) *pubsub.Event { return m.Events[i] }
