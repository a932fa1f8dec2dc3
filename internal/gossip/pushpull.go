package gossip

import (
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

// Push-pull anti-entropy extension. The paper grounds gossip's robustness
// in the epidemic literature (§4.2 cites Demers et al. and bimodal
// multicast): pure push spreads fast but leaves a stochastic tail of
// uninfected peers when the fanout or the forwarding TTL is tight.
// Anti-entropy repairs that tail: peers periodically exchange digests of
// recently seen event IDs and pull what they are missing.
//
// The extension adds three message types to the basic Peer:
//
//	DigestMsg  — "these are the event IDs I hold"
//	PullReq    — "send me these events" (IDs the digester was missing)
//	(replies reuse Msg)
//
// Digest traffic is cheap (8 bytes/ID) and is what makes low-fanout
// configurations reliable — measured in EXP-X1.

// DigestMsg advertises the sender's buffered event IDs.
type DigestMsg struct {
	IDs []pubsub.EventID
}

// PullReq asks the receiver to send the listed events.
type PullReq struct {
	IDs []pubsub.EventID
}

// Wire-size accounting for anti-entropy messages.
const (
	digestHeaderSize = 8
	eventIDWireSize  = 8
)

// DigestWireSize returns the accounting size of a digest or pull request
// with n event IDs.
func DigestWireSize(n int) int { return digestHeaderSize + n*eventIDWireSize }

// EnableAntiEntropy turns on push-pull for the peer: every `every`-th
// round it sends a digest of its retransmission archive to one random
// partner. The archive outlives the forwarding buffer by archiveAge
// rounds (Demers-style: proactive push is bounded by the short TTL,
// reactive repair can reach further back). archiveAge ≤ 0 defaults to
// 4× the forwarding TTL; every ≤ 0 disables.
func (p *Peer) EnableAntiEntropy(every, archiveAge int) {
	p.antiEntropyEvery = every
	if every <= 0 {
		p.archive = nil
		return
	}
	if archiveAge <= 0 {
		archiveAge = 4 * p.cfg.BufferMaxAge
	}
	p.archive = NewBuffer(4*p.cfg.BufferCap, archiveAge)
}

// antiEntropyRound sends one digest if this round is a digest round.
func (p *Peer) antiEntropyRound() {
	if p.archive == nil {
		return
	}
	p.archive.Tick()
	if int(p.rounds)%p.antiEntropyEvery != 0 {
		return
	}
	if p.archive.Len() == 0 {
		return
	}
	targets := p.sampler.SamplePeers(p.rng, 1)
	if len(targets) == 0 {
		return
	}
	digest := DigestMsg{IDs: p.archive.ids()}
	p.net.Send(p.ID, targets[0], digest, DigestWireSize(len(digest.IDs)))
}

// handleDigest answers a digest: request everything we have not seen.
func (p *Peer) handleDigest(from simnet.NodeID, d DigestMsg) {
	var missing []pubsub.EventID
	for _, id := range d.IDs {
		if !p.seen.Contains(id) {
			missing = append(missing, id)
		}
	}
	if len(missing) == 0 {
		return
	}
	p.net.Send(p.ID, from, PullReq{IDs: missing}, DigestWireSize(len(missing)))
}

// handlePullReq serves a pull request from the archive (falling back to
// the forwarding buffer when anti-entropy is off but a request arrives).
func (p *Peer) handlePullReq(from simnet.NodeID, req PullReq) {
	var events []*pubsub.Event
	for _, id := range req.IDs {
		if p.archive != nil {
			if e, ok := p.archive.Get(id); ok {
				events = append(events, e)
				continue
			}
		}
		if e, ok := p.buffer.Get(id); ok {
			events = append(events, e)
		}
	}
	if len(events) == 0 {
		return
	}
	p.net.Send(p.ID, from, Msg{Events: events}, MsgWireSize(events))
}
