package core

import (
	"fairgossip/internal/protocol"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

// Node is one FairGossip process under the simulator: the protocol.Peer
// state machine bound to simnet. Every protocol decision — topic groups,
// semantic bias, push-pull and cheat padding included — is the peer's;
// the node sends what it decides, charges the ledger, and hands it what
// arrives. It implements simnet.Handler; the cluster drives its Round
// method from a round ticker. Whether it is up is its network's to say,
// and the cluster alone takes it down and brings it back (Crash, Leave,
// Rejoin).
//
// Nodes are single-threaded: all methods run on the simulator goroutine
// of the shard that owns them.
type Node struct {
	protocol.Peer

	// sh is the owning shard: its network, ledger, envelope pool, audit
	// sink and the Out every Peer call of the shard writes to (each
	// caller flushes it before the shard's next call).
	sh *shard
}

// Active reports whether the node is up on its network.
func (nd *Node) Active() bool { return nd.sh.net.Up(nd.ID()) }

// flush sends what the peer's last input left in the shard's Out, in
// order: each message copied once into a pooled envelope, which every one
// of its targets shares, and charged its Size per target — the length
// internal/wire encodes it to. A node that is down sends nothing and is
// charged nothing.
func (nd *Node) flush() {
	if !nd.Active() {
		return
	}
	out := &nd.sh.out
	for i := range out.Msgs {
		o := &out.Msgs[i]
		m := nd.sh.pool.envelope(&o.Msg)
		size := m.Size()
		for _, q := range o.To {
			nd.sh.net.Send(nd.ID(), q, m, size)
			nd.sh.ledger.AddSend(int(nd.ID()), o.Class, size)
		}
		m.Release()
	}
}

// --- Public API: the three operations of §2 -------------------------------

// Subscribe registers a filter and returns its subscription ID. In topic
// mode, plain topic filters additionally join the topic's gossip group
// through a random-walk subscription (§5.1).
func (nd *Node) Subscribe(f pubsub.Filter) pubsub.SubID {
	id := nd.Peer.Subscribe(f, &nd.sh.out)
	nd.flush()
	return id
}

// Publish originates an event on the given topic. In topic mode a
// publisher that is not itself subscribed hands the event to a group
// member via a publication walk.
func (nd *Node) Publish(topic string, attrs []pubsub.Attr, payload []byte) pubsub.EventID {
	ev := nd.Peer.Publish(topic, attrs, payload, &nd.sh.out)
	nd.flush()
	return ev.ID
}

// Round executes one gossip period: the peer decides, the node sends, and
// the peer adapts after the sends, so its window reads what they were
// charged.
func (nd *Node) Round() {
	if !nd.Active() {
		return
	}
	nd.Tick(&nd.sh.out)
	nd.flush()
	nd.Adapt()
}

// --- Receive path ------------------------------------------------------------

// HandleMessage implements simnet.Handler (the network delivers only to
// an up node): the peer handles the message, the node sends what it
// answers and books the novelty audit against the sender. This is the one
// ledger write aimed at ANOTHER process's account, so it goes through the
// shard's auditSink: a remote sender's controller must never race it
// mid-window.
func (nd *Node) HandleMessage(msg simnet.Message) {
	m, ok := msg.Payload.(*wireMsg)
	if !ok {
		return
	}
	in := protocol.In{Kind: m.Kind, Hop: m.Hop, Entries: m.Entries, Parts: m.Parts, Events: m}
	novel, junk, _ := nd.Recv(msg.From, in, &nd.sh.out)
	nd.flush()
	if novel+junk > 0 {
		nd.sh.auditSink(int(msg.From), novel, junk)
	}
}

var _ simnet.Handler = (*Node)(nil)
