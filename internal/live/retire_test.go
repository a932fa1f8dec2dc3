package live

import (
	"testing"

	"fairgossip/internal/core"
	"fairgossip/internal/fairness"
	"fairgossip/internal/protocol"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// fedEvent is the event both feeders hold: published by peer 2, outside
// the two-peer clusters, so neither feeder is its publisher, and sent as
// a round's gossip (wire.KindEvents), so no copy the receiver gets is
// relayed at once.
var fedEvent = &pubsub.Event{ID: pubsub.EventID{Publisher: 2, Seq: 1}, Topic: "t", Payload: []byte("x")}

// batchOf is a protocol.Batch of decoded events.
type batchOf []*pubsub.Event

func (b batchOf) Len() int                         { return len(b) }
func (b batchOf) Head(i int) (pubsub.EventID, int) { return b[i].ID, b[i].WireSize() }
func (b batchOf) Event(i int) *pubsub.Event        { return b[i] }

// simRetiresOn feeds a simulated node one copy of one event at a time
// and returns the copy after which it no longer forwards the event. The
// feeder is node 0 of a two-node cluster whose tickers never start,
// handed fedEvent by its publisher through the machine alone: each
// hand-driven Round of node 0 pushes the event to its only partner and
// the kernel is run dry, so node 1 has received exactly k copies when its
// own first Round shows — by a charged application message or none —
// whether the event is still in its buffer. That Round sends node 0 a
// duplicate, hence a fresh cluster per k.
func simRetiresOn(t *testing.T, batch int) int {
	t.Helper()
	for k := 1; k <= 4*batch+2; k++ {
		c := core.NewCluster(2, core.Config{
			Membership: core.MemberFull, Fanout: 1, Batch: batch, BufferMaxAge: 1 << 10,
		}, core.ClusterOptions{Seed: 1})
		var discard protocol.Out
		c.Node(0).Recv(simnet.NodeID(fedEvent.ID.Publisher), protocol.In{Kind: wire.KindEvents, Events: batchOf{fedEvent}}, &discard)
		for copies := 0; copies < k; copies++ {
			c.Node(0).Round()
			c.Sim.Run()
		}
		c.Node(1).Round()
		if c.Ledger.Account(1).MsgsSent[fairness.ClassApp] == 0 {
			return k
		}
	}
	t.Fatalf("batch %d: the simulated node still forwards after %d copies", batch, 4*batch+2)
	return 0
}

// liveRetiresOn feeds the same sequence — the event once as news, then
// as duplicates — to a live peer's receive path and returns the copy
// that empties its buffer.
func liveRetiresOn(t *testing.T, batch int) int {
	t.Helper()
	c := mustCluster(t, Config{N: 2, Fanout: 1, Batch: batch, Seed: 1})
	p := c.peerAt(1)
	ev := fedEvent
	env, err := wire.AppendEnvelope(nil, 0, []*pubsub.Event{ev})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4*batch+2; k++ {
		p.receive(env)
		if !p.m.Buffer().Contains(ev.ID) {
			return k
		}
	}
	t.Fatalf("batch %d: the live peer still buffers after %d copies", batch, 4*batch+2)
	return 0
}

// TestRetirementParity is the driver-level check of the rule
// protocol.TestFirstCopyPlusTwoBatchesOfDuplicatesRetires pins on the
// machine: a simulated node fed through simnet and a live peer fed
// encoded envelopes both reach the one admission loop
// (protocol.Peer.Recv) and must retire on the same copy, the first
// plus 2 × batch duplicates.
func TestRetirementParity(t *testing.T) {
	for _, batch := range []int{1, 4, 8} {
		sim, live := simRetiresOn(t, batch), liveRetiresOn(t, batch)
		if want := 1 + 2*batch; sim != want || live != want {
			t.Errorf("batch %d: sim retires on copy %d, live on copy %d, want both %d", batch, sim, live, want)
		}
	}
}
