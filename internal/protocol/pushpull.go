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
// (wire.KindPull); the answer is ordinary gossip. The pull also repairs a
// lazy push (wire.KindLazy), so every peer answers one, from the archive
// when it keeps one and from its flat buffer otherwise.
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
	missing := out.lazy[:0]
	for _, id := range x.IDs {
		if !p.Seen(id) {
			missing = append(missing, id)
		}
	}
	out.lazy = missing
	p.pull(from, missing, out)
}

// recvLazy takes a lazy push's ids. One this peer has seen is a returned
// copy like a full one (Buffer.Duplicate), and its bytes are junk to the
// §5.2 audit; the rest it pulls from the sender in one KindPull and leaves
// unseen until the events themselves arrive. It returns the junk bytes.
func (p *Peer) recvLazy(from simnet.NodeID, ids []pubsub.EventID, out *Out) (junk int) {
	missing := out.lazy[:0]
	for _, id := range ids {
		if p.Seen(id) {
			p.buffer.Duplicate(id, p.batch)
			junk += wire.IDWireSize
		} else {
			missing = append(missing, id)
		}
	}
	out.lazy = missing
	p.pull(from, missing, out)
	return junk
}

// pull asks from for the events ids names, unless there are none or
// from is this peer.
func (p *Peer) pull(from simnet.NodeID, ids []pubsub.EventID, out *Out) {
	if len(ids) > 0 && from != p.id {
		out.emit(wire.Msg{Kind: wire.KindPull}, &wire.Parts{IDs: ids}, fairness.ClassInfra, from)
	}
}

// recvPull answers with the requested events this peer still holds: in
// its archive when it keeps one, otherwise in its flat buffer. An id it
// no longer holds gets no reply. The answer is ordinary gossip, never lazy.
func (p *Peer) recvPull(from simnet.NodeID, x *wire.Parts, out *Out) {
	src := p.archive()
	if src == nil {
		src = &p.buffer
	}
	events := out.sel[:0]
	for _, id := range x.IDs {
		if ev, ok := src.Get(id); ok {
			events = append(events, ev)
		}
	}
	out.sel = events
	if len(events) > 0 {
		out.ids = append(out.ids[:0], from)
		p.gossip(out, out.ids, "", events, nil, nil, 0)
	}
}
