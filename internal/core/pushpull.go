package core

import (
	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// Push-pull anti-entropy (EXP-X1), a driver extension beside topic groups
// and semantic bias: pure push with a tight fanout or TTL leaves a tail of
// uninfected peers (§4.2 cites Demers et al.). A node keeps what it
// publishes or admits in an archive archiveScale times its forwarding
// buffer's size and lifetime, and every Config.AntiEntropy-th round sends
// the archive's ids to one partner (wire.KindDigest). The partner pulls
// those it has not seen (wire.KindPull); the answer is ordinary gossip.
const archiveScale = 4

// newArchive returns a node's archive, or nil when push-pull is off.
func newArchive(cfg *Config) *gossip.Buffer {
	if cfg.AntiEntropy <= 0 {
		return nil
	}
	return gossip.NewBuffer(archiveScale*cfg.BufferCap, archiveScale*cfg.BufferMaxAge)
}

// archiveNew archives a received batch's unseen events, before admission.
func (nd *Node) archiveNew(events []*pubsub.Event) {
	a := nd.archive()
	if a == nil {
		return
	}
	for _, ev := range events {
		if !nd.Seen(ev.ID) {
			a.Insert(ev)
		}
	}
}

// antiEntropy ages the archive and, every AntiEntropy-th round, sends its
// ids to one partner. Without an archive it draws nothing from the RNG.
func (nd *Node) antiEntropy() {
	a := nd.archive()
	if a == nil {
		return
	}
	if a.Tick(); nd.Rounds()%nd.cfg.AntiEntropy != 0 || a.Len() == 0 {
		return
	}
	if to := nd.overlayPeers(1); len(to) > 0 {
		nd.send(to[0], newExtMsg(wire.KindDigest, wire.Parts{IDs: a.IDs()}), fairness.ClassInfra)
	}
}

// handleDigest pulls every advertised event this node has not seen.
func (nd *Node) handleDigest(from simnet.NodeID, m *wireMsg) {
	var missing []pubsub.EventID
	for _, id := range m.Opt().IDs {
		if !nd.Seen(id) {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		nd.send(from, newExtMsg(wire.KindPull, wire.Parts{IDs: missing}), fairness.ClassInfra)
	}
}

// handlePull answers with the requested events this node still holds: in
// its archive, or in its forwarding buffer when it keeps no archive. An id
// held nowhere gets no reply.
func (nd *Node) handlePull(from simnet.NodeID, m *wireMsg) {
	store := nd.archive()
	if store == nil {
		store = nd.Buffer()
	}
	var events []*pubsub.Event
	for _, id := range m.Opt().IDs {
		if ev, ok := store.Get(id); ok {
			events = append(events, ev)
		}
	}
	if len(events) > 0 {
		nd.sendGossip(from, "", events, nil)
	}
}
