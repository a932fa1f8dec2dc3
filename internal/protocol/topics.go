package protocol

import (
	"sort"

	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/membership"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// Topic groups (§5.1, Params.Topics): one gossip group per topic, so only
// a topic's subscribers carry its events. A subscriber joins a group by a
// random walk over the overlay that ends at a member, which answers with
// group-bootstrap entries; members keep each other's group views alive by
// piggybacking a few members on their gossip. A publisher outside the group
// hands its event to a member by a publication walk. Relaying walks is the
// maintenance work §5.1 charges uninterested peers with (WalkRelays).
const (
	topicViewCap = 12 // a group view's capacity
	adLen        = 2  // members piggybacked on a group's gossip
	walkHopLimit = 16 // a walk's TTL
)

// JunkPadding is how many bytes of junk a Cheat peer pads every gossip
// message with (EXP-A6).
const JunkPadding = 512

// topicGroup is this peer's slice of one per-topic gossip group.
type topicGroup struct {
	view    *membership.View
	buffer  *gossip.Buffer
	retryIn int // rounds until the join walk is retried while the view is undersized
}

// group returns this peer's slice of the topic's group, or nil.
func (p *Peer) group(topic string) *topicGroup {
	if p.x == nil {
		return nil
	}
	return p.x.groups[topic]
}

// GroupView returns the peer's view of the topic's group, or nil when the
// peer is not a member.
func (p *Peer) GroupView(topic string) *membership.View {
	if g := p.group(topic); g != nil {
		return g.view
	}
	return nil
}

// WalkRelays returns how many subscription and publication walks this
// peer relayed on behalf of others.
func (p *Peer) WalkRelays() uint64 {
	if p.x == nil {
		return 0
	}
	return p.x.walkRelays
}

func (p *Peer) joinGroup(topic string, out *Out) {
	if p.group(topic) != nil {
		return
	}
	x := p.x
	if x.groups == nil {
		x.groups = make(map[string]*topicGroup)
	}
	x.groups[topic] = &topicGroup{
		view:   membership.NewView(p.id, topicViewCap),
		buffer: gossip.NewBuffer(p.par.BufferCap, p.par.BufferMaxAge),
	}
	p.rebuildGroupOrder()
	p.startWalk(wire.KindSubWalk, topic, nil, out)
}

// leaveGroups drops the groups no remaining filter selects.
func (p *Peer) leaveGroups() {
	for _, topic := range p.x.groupOrder {
		if !p.interest.HasTopic(topic) {
			delete(p.x.groups, topic)
		}
	}
	p.rebuildGroupOrder()
}

// rebuildGroupOrder re-derives the sorted topic list from the group map.
func (p *Peer) rebuildGroupOrder() {
	x := p.x
	x.groupOrder = x.groupOrder[:0]
	for topic := range x.groups {
		x.groupOrder = append(x.groupOrder, topic)
	}
	sort.Strings(x.groupOrder)
}

// rejoinGroups walks again into every group whose view is empty.
func (p *Peer) rejoinGroups(out *Out) {
	if p.x == nil {
		return
	}
	for _, topic := range p.x.groupOrder {
		if p.x.groups[topic].view.Len() == 0 {
			p.startWalk(wire.KindSubWalk, topic, nil, out)
		}
	}
}

// pushTopics is the push step over each group the peer is in, in topic
// order.
func (p *Peer) pushTopics(out *Out) {
	const minView = topicViewCap / 4
	for _, topic := range p.x.groupOrder {
		g := p.x.groups[topic]
		// Keep walking while the group view is undersized: a join that
		// terminated at another isolated newcomer would otherwise leave
		// a disconnected clique that never merges with the main group.
		if g.view.Len() < minView {
			if g.retryIn <= 0 {
				p.startWalk(wire.KindSubWalk, topic, nil, out)
				if g.view.Len() == 0 {
					g.retryIn = 4
				} else {
					g.retryIn = 8
				}
			} else {
				g.retryIn--
			}
		}
		// A free-rider withholds events but keeps heartbeating its ads:
		// membership maintenance continues, so it stays in group views
		// (and keeps benefiting) while contributing nothing.
		var events []*pubsub.Event
		if !p.FreeRide {
			events = p.selectFrom(g.buffer, out)
		}
		heartbeat := p.round%4 == 0
		if len(events) == 0 && !heartbeat {
			g.buffer.Tick()
			continue
		}
		p.spread(out, topic, events, nil, 0)
		g.buffer.Tick()
	}
}

// groupSample draws k members of a group's view and adds the peer itself,
// fresh: the ads a member piggybacks on its gossip, and the entries it
// bootstraps a newcomer with.
func (p *Peer) groupSample(g *topicGroup, k int, out *Out) []wire.ViewEntry {
	ents := make([]wire.ViewEntry, 0, k+1)
	for _, id := range p.viewSample(g.view, k, out) {
		ents = append(ents, wire.ViewEntry{ID: uint32(id), Age: 1})
	}
	return append(ents, wire.ViewEntry{ID: uint32(p.id), Age: 0})
}

// startWalk originates a walk of the given kind at one overlay contact, if
// there is one.
func (p *Peer) startWalk(kind Kind, topic string, events []*pubsub.Event, out *Out) {
	contacts := p.partners(1, out)
	if len(contacts) == 0 {
		return
	}
	x := wire.Parts{Topic: topic, Origin: uint32(p.id), Hops: walkHopLimit}
	out.emit(wire.Msg{Kind: kind, Events: events}, &x, fairness.ClassInfra, contacts[0])
}

// relayWalk passes a walk this peer does not terminate one hop on, avoiding
// the peer it came from when a second draw allows. A walk out of hops dies
// here.
func (p *Peer) relayWalk(from simnet.NodeID, kind Kind, x *wire.Parts, b Batch, out *Out) {
	if x.Hops <= 1 {
		return
	}
	p.x.walkRelays++
	next := p.partners(1, out)
	if len(next) == 0 || next[0] == from {
		next = p.partners(1, out)
	}
	if len(next) == 0 {
		return
	}
	events := make([]*pubsub.Event, b.Len())
	for i := range events {
		events[i] = b.Event(i)
	}
	fwd := *x
	fwd.Hops--
	out.emit(wire.Msg{Kind: kind, Events: events}, &fwd, fairness.ClassInfra, next[0])
}

// recvSubWalk ends a subscription walk at a member — which answers with
// bootstrap entries and adopts the newcomer — or relays it. A walk back
// at its originator ends there: the originator is a member already, and
// has nothing to bootstrap itself with.
func (p *Peer) recvSubWalk(from simnet.NodeID, x *wire.Parts, b Batch, out *Out) {
	g := p.group(x.Topic)
	if g == nil {
		p.relayWalk(from, wire.KindSubWalk, x, b, out)
		return
	}
	if simnet.NodeID(x.Origin) == p.id {
		return
	}
	ack := wire.Msg{Kind: wire.KindSubAck, Entries: p.groupSample(g, ShuffleLen, out)}
	out.emit(ack, &wire.Parts{Topic: x.Topic}, fairness.ClassInfra, simnet.NodeID(x.Origin))
	g.view.Add(simnet.NodeID(x.Origin))
}

// recvSubAck merges a member's bootstrap entries into the group's view.
func (p *Peer) recvSubAck(x *wire.Parts, entries []wire.ViewEntry) {
	g := p.group(x.Topic)
	if g == nil {
		return // unsubscribed while the walk was in flight
	}
	for _, e := range entries {
		g.view.AddAged(membership.Entry{ID: simnet.NodeID(e.ID), Age: int(e.Age)})
	}
}

// recvPubWalk ends a publication walk at a member or relays it. The
// hand-off is the event's first copy here, not gossip to grade: admitted
// like any batch, unaudited.
func (p *Peer) recvPubWalk(from simnet.NodeID, x *wire.Parts, b Batch, out *Out) {
	if g := p.group(x.Topic); g != nil {
		p.admitEvents(from, g.buffer, b, nil, false)
		return
	}
	p.relayWalk(from, wire.KindPubWalk, x, b, out)
}
