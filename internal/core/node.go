package core

import (
	"sort"

	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/membership"
	"fairgossip/internal/protocol"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// Node is one FairGossip process under the simulator: the shared
// protocol.Peer state machine, plus what only the simulator has — the
// simnet binding, §5.1's topic groups and walks, semantic partner bias
// and cheat padding. It implements simnet.Handler; the cluster drives
// its Round method from a jittered per-node ticker.
//
// Nodes are single-threaded: all methods run on the simulator goroutine
// of the shard that owns them.
type Node struct {
	protocol.Peer

	// sh is the owning shard: its network, ledger, envelope pool, audit
	// sink and the output scratch every Peer call of the shard writes to
	// (each caller consumes it before the shard's next call).
	sh  *shard
	cfg *Config // the cluster's, shared and read-only

	active bool

	// Cheat makes this node pad every outgoing gossip message with
	// junkPadding bytes of worthless data (EXP-A6).
	Cheat bool

	ext *nodeExt // nil unless the cluster runs topic groups, semantic bias or push-pull
}

// nodeExt is the state only topic groups, semantic bias and push-pull
// keep. Sim-huge runs none of them, and at N = 100 000 each byte of Node
// is a tenth of a megabyte.
type nodeExt struct {
	groups     map[string]*topicGroup // topic-mode groups this node is in; nil until the first join
	groupOrder []string               // sorted group topics (deterministic rounds)

	archive *gossip.Buffer // push-pull's store (pushpull.go); nil unless Config.AntiEntropy

	// walkRelays counts subscription/publication walks this node relayed
	// for others — §5.1's maintenance burden; walksSent those it originated.
	walkRelays, walksSent uint64

	// peerFPs remembers other peers' interest fingerprints for semantic
	// partner bias (semantic.go).
	peerFPs map[simnet.NodeID]uint64
}

// topicGroup is this node's slice of one per-topic gossip group.
type topicGroup struct {
	view    *membership.View
	buffer  *gossip.Buffer
	retryIn int // rounds until the join walk is retried while the view is empty
}

// Active reports whether the node is participating.
func (nd *Node) Active() bool { return nd.active }

// WalkRelays returns how many subscription/publication walks this node
// relayed on behalf of others.
func (nd *Node) WalkRelays() uint64 {
	if nd.ext == nil {
		return 0
	}
	return nd.ext.walkRelays
}

// group returns this node's slice of the topic's group, or nil.
func (nd *Node) group(topic string) *topicGroup {
	if nd.ext == nil {
		return nil
	}
	return nd.ext.groups[topic]
}

// archive returns the push-pull store, or nil.
func (nd *Node) archive() *gossip.Buffer {
	if nd.ext == nil {
		return nil
	}
	return nd.ext.archive
}

// overlayPeers samples k partners from the overlay substrate into the
// shard's scratch.
func (nd *Node) overlayPeers(k int) []simnet.NodeID { return nd.Partners(k, &nd.sh.out) }

// viewPeers samples k partners from a topic group's view into the
// shard's scratch.
func (nd *Node) viewPeers(v *membership.View, k int) []simnet.NodeID {
	out := &nd.sh.out
	out.Targets = v.SampleInto(nd.Rand(), k, out.Targets)
	return out.Targets
}

// send transmits a wire message and charges the ledger — the byte charge
// is the driver's, which alone knows the size.
func (nd *Node) send(to simnet.NodeID, m *wireMsg, class fairness.Class) {
	size := m.Size()
	nd.sh.net.Send(nd.ID(), to, m, size)
	nd.sh.ledger.AddSend(int(nd.ID()), class, size)
}

// sendMembership sends what the machine's last input left in out.Sends,
// copying each one's scratch entries into a pooled envelope.
func (nd *Node) sendMembership(out *protocol.Out) {
	for _, s := range out.Sends {
		m := nd.sh.pool.get()
		m.Kind = s.Kind
		m.Entries = append(m.Entries[:0], s.Entries...)
		nd.send(s.To, m, fairness.ClassInfra)
		m.Release()
	}
}

// --- Public API: the three operations of §2 -------------------------------

// Subscribe registers a filter and returns its subscription ID. In topic
// mode, plain topic filters additionally join the topic's gossip group
// through a random-walk subscription (§5.1).
func (nd *Node) Subscribe(f pubsub.Filter) pubsub.SubID {
	id := nd.Peer.Subscribe(f)
	if nd.cfg.Mode == ModeTopics {
		if topic, ok := pubsub.TopicOf(f); ok {
			nd.joinGroup(topic)
		}
	}
	return id
}

// Unsubscribe removes a subscription. In topic mode the node drops out of
// gossip groups no remaining filter selects; its stale view entries age
// out of other members' views.
func (nd *Node) Unsubscribe(id pubsub.SubID) bool {
	if !nd.Peer.Unsubscribe(id) {
		return false
	}
	if nd.cfg.Mode == ModeTopics {
		for _, topic := range nd.ext.groupOrder {
			if !nd.Interest().HasTopic(topic) {
				delete(nd.ext.groups, topic)
			}
		}
		nd.rebuildGroupOrder()
	}
	return true
}

// rebuildGroupOrder re-derives the sorted topic list from the group map.
func (nd *Node) rebuildGroupOrder() {
	x := nd.ext
	x.groupOrder = x.groupOrder[:0]
	for topic := range x.groups {
		x.groupOrder = append(x.groupOrder, topic)
	}
	sort.Strings(x.groupOrder)
}

// Publish originates an event on the given topic. In topic mode a
// publisher that is not itself subscribed hands the event to a group
// member via a publication walk.
func (nd *Node) Publish(topic string, attrs []pubsub.Attr, payload []byte) pubsub.EventID {
	buf := nd.Buffer()
	if nd.cfg.Mode == ModeTopics {
		buf = nil
		if g := nd.group(topic); g != nil {
			buf = g.buffer
		}
	}
	ev := nd.Peer.Publish(buf, topic, attrs, payload)
	if a := nd.archive(); a != nil {
		a.Insert(ev)
	}
	if buf == nil {
		nd.publishWalk(ev)
	}
	return ev.ID
}

// --- Round logic -----------------------------------------------------------

// Round executes one gossip period. The machine runs it — membership
// maintenance, the push step, periodically a controller update — and the
// node sends what it decides; topic groups and semantic bias replace the
// push step with their own, built on the machine's Select and Partners.
func (nd *Node) Round() {
	if !nd.active {
		return
	}
	out := &nd.sh.out
	nd.Maintain(out)
	nd.sendMembership(out)
	switch {
	case nd.cfg.Mode == ModeTopics:
		nd.roundTopics()
	case nd.cfg.SemanticBias > 0:
		nd.roundSemantic()
	default:
		nd.Push(out)
		nd.sendGossipAll(out.Targets, "", out.Events, nil)
	}
	nd.antiEntropy()
	nd.Adapt() // after the sends: the window reads what they were charged
}

// roundSemantic sends topic-coherent sub-batches: a mixed batch has a
// blurred fingerprint that matches everyone, so the bias needs per-topic
// messages to have a signal.
func (nd *Node) roundSemantic() {
	if !nd.FreeRide {
		for _, group := range splitByTopic(nd.Select(nd.Buffer(), &nd.sh.out)) {
			fp := batchFingerprint(group)
			for _, q := range nd.biasedPeers(nd.Fanout(), fp) {
				nd.sendGossip(q, "", group, nil)
			}
		}
	}
	nd.Buffer().Tick()
}

// splitByTopic partitions a batch into per-topic groups, in sorted topic
// order for determinism.
func splitByTopic(events []*pubsub.Event) [][]*pubsub.Event {
	byTopic := make(map[string][]*pubsub.Event)
	topics := make([]string, 0, 4)
	for _, ev := range events {
		if _, ok := byTopic[ev.Topic]; !ok {
			topics = append(topics, ev.Topic)
		}
		byTopic[ev.Topic] = append(byTopic[ev.Topic], ev)
	}
	sort.Strings(topics)
	out := make([][]*pubsub.Event, 0, len(topics))
	for _, t := range topics {
		out = append(out, byTopic[t])
	}
	return out
}

func (nd *Node) roundTopics() {
	const minView = topicViewCap / 4
	for _, topic := range nd.ext.groupOrder {
		g := nd.ext.groups[topic]
		// Keep walking while the group view is undersized: a join that
		// terminated at another isolated newcomer would otherwise leave
		// a disconnected clique that never merges with the main group.
		if g.view.Len() < minView {
			if g.retryIn <= 0 {
				nd.subscribeWalk(topic)
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
		if !nd.FreeRide {
			events = nd.Select(g.buffer, &nd.sh.out)
		}
		heartbeat := nd.Rounds()%4 == 0
		if len(events) == 0 && !heartbeat {
			g.buffer.Tick()
			continue
		}
		ads := nd.groupAds(g)
		nd.sendGossipAll(nd.viewPeers(g.view, nd.Fanout()), topic, events, ads)
		g.buffer.Tick()
	}
}

// groupAds samples a few known members (plus self) to piggyback, keeping
// group views alive without a directory service.
func (nd *Node) groupAds(g *topicGroup) []wire.ViewEntry {
	ads := make([]wire.ViewEntry, 0, adLen+1)
	for _, id := range nd.viewPeers(g.view, adLen) {
		ads = append(ads, wire.ViewEntry{ID: uint32(id), Age: 1})
	}
	return append(ads, wire.ViewEntry{ID: uint32(nd.ID()), Age: 0})
}

// buildGossip assembles one gossip wire message in a pooled envelope,
// which comes back with one owner reference; the send paths drop it
// after the fanout.
func (nd *Node) buildGossip(topic string, events []*pubsub.Event, ads []wire.ViewEntry) *wireMsg {
	m := nd.sh.pool.get()
	m.Kind = wire.KindEvents
	m.Events = append(m.Events[:0], events...)
	if topic != "" || len(ads) > 0 {
		x := m.extend()
		x.Topic = topic
		x.Ads = append(x.Ads[:0], ads...)
	}
	if nd.Cheat {
		m.extend().Pad = junkPadding
	}
	if nd.cfg.SemanticBias > 0 {
		x := m.extend()
		x.FP = interestFingerprint(nd.Interest())
		x.FPAds = nd.fpAds(2)
	}
	return m
}

func (nd *Node) sendGossip(to simnet.NodeID, topic string, events []*pubsub.Event, ads []wire.ViewEntry) {
	m := nd.buildGossip(topic, events, ads)
	nd.send(to, m, fairness.ClassApp)
	m.Release()
}

// sendGossipAll fans one batch out to every peer. The network passes
// payloads by reference and receivers treat them as read-only, so outside
// semantic mode a single wireMsg (and a single size computation) is
// shared across the whole fanout instead of allocating one per peer.
func (nd *Node) sendGossipAll(peers []simnet.NodeID, topic string, events []*pubsub.Event, ads []wire.ViewEntry) {
	if len(peers) == 0 {
		return
	}
	if nd.cfg.SemanticBias > 0 {
		// fpAds draws from the node's RNG: keep the historical per-peer
		// construction so fixed-seed runs stay bit-identical.
		for _, q := range peers {
			nd.sendGossip(q, topic, events, ads)
		}
		return
	}
	m := nd.buildGossip(topic, events, ads)
	size := m.Size()
	for _, q := range peers {
		nd.sh.net.Send(nd.ID(), q, m, size)
		nd.sh.ledger.AddSend(int(nd.ID()), fairness.ClassApp, size)
	}
	m.Release()
}

// --- Topic-group joining (§5.1) ---------------------------------------------

func (nd *Node) joinGroup(topic string) {
	if nd.group(topic) != nil {
		return
	}
	if nd.ext.groups == nil {
		nd.ext.groups = make(map[string]*topicGroup)
	}
	nd.ext.groups[topic] = &topicGroup{
		view:   membership.NewView(nd.ID(), topicViewCap),
		buffer: gossip.NewBuffer(nd.cfg.BufferCap, nd.cfg.BufferMaxAge),
	}
	nd.rebuildGroupOrder()
	nd.subscribeWalk(topic)
}

// subscribeWalk launches a random walk that terminates at some subscriber
// of the topic, which replies with group-bootstrap entries.
func (nd *Node) subscribeWalk(topic string) {
	nd.startWalk(newExtMsg(wire.KindSubWalk, wire.Parts{Topic: topic}))
}

// publishWalk hands an event from a non-subscribed publisher to the
// topic's group.
func (nd *Node) publishWalk(ev *pubsub.Event) {
	m := newExtMsg(wire.KindPubWalk, wire.Parts{Topic: ev.Topic})
	m.Events = []*pubsub.Event{ev}
	nd.startWalk(m)
}

// startWalk originates a walk (a newExtMsg) at one overlay contact, if
// there is one.
func (nd *Node) startWalk(m *wireMsg) {
	contacts := nd.overlayPeers(1)
	if len(contacts) == 0 {
		return
	}
	nd.ext.walksSent++
	m.Parts.Origin, m.Parts.Hops = uint32(nd.ID()), walkHopLimit
	nd.send(contacts[0], m, fairness.ClassInfra)
}

// relayWalk passes a walk this node does not terminate one hop on — the
// §5.1 maintenance burden — avoiding the peer it came from when a
// second draw allows. A walk out of hops dies here.
func (nd *Node) relayWalk(from simnet.NodeID, m *wireMsg) {
	if m.Opt().Hops <= 1 {
		return
	}
	nd.ext.walkRelays++
	next := nd.overlayPeers(1)
	if len(next) == 0 || next[0] == from {
		next = nd.overlayPeers(1)
	}
	if len(next) == 0 {
		return
	}
	fwd := newExtMsg(m.Kind, *m.Opt())
	fwd.Events = m.Events
	fwd.Parts.Hops--
	nd.send(next[0], fwd, fairness.ClassInfra)
}

// --- Churn (§3.2 penalty) ----------------------------------------------------

// Leave takes the node offline without notice.
func (nd *Node) Leave() {
	nd.active = false
	nd.sh.net.SetUp(nd.ID(), false)
}

// Rejoin brings the node back, announcing it to the bootstrap contact
// like any joiner (protocol.Peer.Join: charged, retried under back-off)
// and charging the configured instability penalty.
func (nd *Node) Rejoin(bootstrap simnet.NodeID) {
	nd.active = true
	nd.sh.net.SetUp(nd.ID(), true)
	if nd.cfg.RepairPenalty > 0 {
		nd.sh.ledger.AddChurnPenalty(int(nd.ID()), nd.cfg.RepairPenalty)
	}
	nd.Peer.Join(bootstrap, &nd.sh.out)
	nd.sendMembership(&nd.sh.out)
	// Re-join all topic groups (stale views may point to departed peers).
	if nd.ext != nil {
		for _, topic := range nd.ext.groupOrder {
			if nd.ext.groups[topic].view.Len() == 0 {
				nd.subscribeWalk(topic)
			}
		}
	}
}

// --- Receive path ------------------------------------------------------------

// HandleMessage implements simnet.Handler.
func (nd *Node) HandleMessage(msg simnet.Message) {
	m, ok := msg.Payload.(*wireMsg)
	if !ok || !nd.active {
		return
	}
	switch m.Kind {
	case wire.KindEvents:
		nd.handleGossip(msg.From, m)
	case wire.KindOffer, wire.KindReply, wire.KindJoin, wire.KindLeave:
		out := &nd.sh.out
		nd.RecvMembership(m.Kind, msg.From, m.Entries, out)
		nd.sendMembership(out)
	case wire.KindSubWalk:
		nd.handleSubWalk(msg.From, m)
	case wire.KindSubAck:
		nd.handleSubAck(m)
	case wire.KindPubWalk:
		nd.handlePubWalk(msg.From, m)
	case wire.KindDigest:
		nd.handleDigest(msg.From, m)
	case wire.KindPull:
		nd.handlePull(msg.From, m)
	}
}

func (nd *Node) handleGossip(from simnet.NodeID, m *wireMsg) {
	x := m.Opt()
	if nd.cfg.SemanticBias > 0 {
		nd.rememberFingerprint(from, x.FP)
		for _, ad := range x.FPAds {
			nd.rememberFingerprint(simnet.NodeID(ad.ID), ad.FP)
		}
	}
	// Fair-by-structure: in topic mode only group members re-forward.
	// Events for groups we are not in are delivered (if interesting) but
	// never buffered for forwarding.
	buf := nd.Buffer()
	if nd.cfg.Mode == ModeTopics {
		buf = nil
		if g := nd.group(x.Topic); g != nil {
			buf = g.buffer
			for _, ad := range x.Ads {
				g.view.AddAged(membership.Entry{ID: simnet.NodeID(ad.ID), Age: int(ad.Age)})
			}
		}
	}
	nd.archiveNew(m.Events)
	novel, dup := nd.RecvEvents(from, buf, m)
	// Novelty audit (§5.2 bias resistance): grade the sender's bytes,
	// cheat padding included. This is the one ledger write aimed at
	// ANOTHER process's account, so it goes through the shard's
	// auditSink: a remote sender's controller must never race it
	// mid-window.
	nd.sh.auditSink(int(from), novel, dup+x.Pad)
}

func (nd *Node) handleSubWalk(from simnet.NodeID, m *wireMsg) {
	x := m.Opt()
	if g := nd.group(x.Topic); g != nil {
		// We are a subscriber: answer with bootstrap entries and adopt
		// the new member.
		entries := make([]wire.ViewEntry, 0, protocol.ShuffleLen+1)
		for _, id := range nd.viewPeers(g.view, protocol.ShuffleLen) {
			entries = append(entries, wire.ViewEntry{ID: uint32(id), Age: 1})
		}
		entries = append(entries, wire.ViewEntry{ID: uint32(nd.ID()), Age: 0})
		ack := newExtMsg(wire.KindSubAck, wire.Parts{Topic: x.Topic})
		ack.Entries = entries
		nd.send(simnet.NodeID(x.Origin), ack, fairness.ClassInfra)
		g.view.Add(simnet.NodeID(x.Origin))
		return
	}
	nd.relayWalk(from, m) // not interested
}

func (nd *Node) handleSubAck(m *wireMsg) {
	g := nd.group(m.Opt().Topic)
	if g == nil {
		return // unsubscribed while the walk was in flight
	}
	for _, e := range m.Entries {
		g.view.AddAged(membership.Entry{ID: simnet.NodeID(e.ID), Age: int(e.Age)})
	}
}

func (nd *Node) handlePubWalk(from simnet.NodeID, m *wireMsg) {
	if g := nd.group(m.Opt().Topic); g != nil {
		// The hand-off is the event's first copy here, not gossip to grade:
		// admitted like any batch, unaudited.
		nd.archiveNew(m.Events)
		nd.RecvEvents(from, g.buffer, m)
		return
	}
	nd.relayWalk(from, m)
}

var _ simnet.Handler = (*Node)(nil)
