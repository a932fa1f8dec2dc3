package protocol

import (
	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// Push-pull anti-entropy (EXP-X1): pure push with a tight fanout or TTL
// leaves a tail of uninfected peers (§4.2 cites Demers et al.). A peer
// with Params.AntiEntropy keeps what it publishes or admits in an archive
// archiveScale times its forwarding buffer's size and lifetime, and every
// AntiEntropy-th round sends the archive's ids to one partner
// (wire.KindDigest). Its receiver pulls those it has not seen
// (wire.KindPull); the answer is ordinary gossip.
const archiveScale = 4

// newArchive returns a peer's archive, or nil without anti-entropy.
func newArchive(par *Params) *gossip.Buffer {
	if par.AntiEntropy <= 0 {
		return nil
	}
	return gossip.NewBuffer(archiveScale*par.BufferCap, archiveScale*par.BufferMaxAge)
}

// archive returns the anti-entropy store, or nil.
func (p *Peer) archive() *gossip.Buffer {
	if p.x == nil {
		return nil
	}
	return p.x.archive
}

// antiEntropy ages the archive and, every AntiEntropy-th round, sends its
// ids to one partner. Without an archive it draws nothing.
func (p *Peer) antiEntropy(out *Out) {
	a := p.archive()
	if a == nil {
		return
	}
	if a.Tick(); p.round%p.par.AntiEntropy != 0 || a.Len() == 0 {
		return
	}
	if to := p.partners(1, out); len(to) > 0 {
		out.emit(wire.Msg{Kind: wire.KindDigest}, &wire.Parts{IDs: a.IDs()}, fairness.ClassInfra, to[0])
	}
}

// recvDigest pulls every advertised event this peer has not seen.
func (p *Peer) recvDigest(from simnet.NodeID, x *wire.Parts, out *Out) {
	var missing []pubsub.EventID
	for _, id := range x.IDs {
		if !p.Seen(id) {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		out.emit(wire.Msg{Kind: wire.KindPull}, &wire.Parts{IDs: missing}, fairness.ClassInfra, from)
	}
}

// recvPull answers with the requested events this peer's archive still
// holds. An id it no longer holds gets no reply.
func (p *Peer) recvPull(from simnet.NodeID, x *wire.Parts, out *Out) {
	var events []*pubsub.Event
	for _, id := range x.IDs {
		if ev, ok := p.archive().Get(id); ok {
			events = append(events, ev)
		}
	}
	if len(events) > 0 {
		p.gossip(out, []simnet.NodeID{from}, "", events, nil)
	}
}
