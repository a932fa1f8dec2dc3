package core

import (
	"math/rand"
	"sort"

	"fairgossip/internal/adaptive"
	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/membership"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

// Node is one FairGossip process. It implements simnet.Handler; the
// cluster drives its Round method from a jittered per-node ticker.
//
// Nodes are single-threaded: all methods run on the simulator goroutine.
type Node struct {
	id     simnet.NodeID
	net    *simnet.Network
	cfg    *Config // the cluster's, shared and read-only
	rng    *rand.Rand
	ledger *fairness.Ledger

	interest   pubsub.Interest
	seen       *gossip.SeenSet
	buffer     *gossip.Buffer         // content-mode event buffer
	groups     map[string]*topicGroup // topic-mode groups this node is in; nil until the first join
	groupOrder []string               // sorted group topics (deterministic rounds)

	cyclon *membership.Cyclon // nil when MemberFull
	full   membership.FullSampler

	ctrl     adaptive.Controller
	lastAcct fairness.Account
	fanout   int
	batch    int

	round  int
	pubSeq uint32
	active bool

	// OnDeliver, when set, observes every delivered event.
	OnDeliver func(*pubsub.Event)

	// Cheat makes this node pad every outgoing gossip message with
	// cfg.JunkPadding bytes of worthless data (EXP-A6).
	Cheat bool

	// FreeRide makes this node stop forwarding gossip while it keeps
	// receiving and delivering — the classic defector the fairness
	// machinery exists to expose. Membership maintenance continues, so
	// the node stays reachable (and keeps benefiting).
	FreeRide bool

	// walkRelays counts subscription/publication walks this node relayed
	// for others — §5.1's maintenance burden.
	walkRelays uint64
	// walksSent counts walks this node originated.
	walksSent uint64

	// peerFPs remembers other peers' interest fingerprints for semantic
	// partner bias (semantic.go).
	peerFPs map[simnet.NodeID]uint64

	// pool recycles gossip envelopes (pool.go). Event selection goes
	// through SelectInto with selScratch and buildGossip copies the batch
	// into the envelope's own recycled backing, so the scratch can be
	// reused next round while the envelope is still in flight.
	pool       *msgPool
	selScratch []*pubsub.Event

	// peerScratch backs every partner draw (overlayPeers, viewPeers):
	// each caller consumes the sample before the node draws again.
	peerScratch []simnet.NodeID

	// auditSink is the owning shard's (shard.go): it charges same-shard
	// novelty audits to the ledger at once and defers cross-shard ones to
	// the round barrier, where they are applied in fixed shard order —
	// the one write that would otherwise race another shard's controller
	// read and break fixed-seed reproducibility.
	auditSink func(from, useful, junk int)
}

// topicGroup is this node's slice of one per-topic gossip group.
type topicGroup struct {
	view    *membership.View
	buffer  *gossip.Buffer
	retryIn int // rounds until the join walk is retried while the view is empty
}

func newNode(id simnet.NodeID, net *simnet.Network, ledger *fairness.Ledger, cfg *Config, n int, rng *rand.Rand, pool *msgPool) *Node {
	nd := &Node{
		id:     id,
		net:    net,
		cfg:    cfg,
		rng:    rng,
		ledger: ledger,
		pool:   pool,
		seen:   gossip.NewSeenSet(cfg.SeenCap),
		buffer: gossip.NewBuffer(cfg.BufferCap, cfg.BufferMaxAge),
		ctrl:   buildController(*cfg, n),
		active: true,
	}
	nd.fanout = nd.ctrl.Fanout()
	nd.batch = nd.ctrl.Batch()
	if cfg.Membership == MemberCyclon {
		nd.cyclon = membership.NewCyclon(membership.NewView(id, cfg.ViewCap), shuffleLen)
	} else {
		nd.full = membership.FullSampler{Self: id, N: n}
	}
	return nd
}

// ID returns the node's network identity.
func (nd *Node) ID() simnet.NodeID { return nd.id }

// Fanout returns the current fanout lever F_i.
func (nd *Node) Fanout() int { return nd.fanout }

// Batch returns the current gossip-message-size lever N_i.
func (nd *Node) Batch() int { return nd.batch }

// Active reports whether the node is participating.
func (nd *Node) Active() bool { return nd.active }

// WalkRelays returns how many subscription/publication walks this node
// relayed on behalf of others.
func (nd *Node) WalkRelays() uint64 { return nd.walkRelays }

// Interest exposes the node's interest function (read-only use).
func (nd *Node) Interest() *pubsub.Interest { return &nd.interest }

// SetPopulation updates the idealised full sampler's population after a
// join (no-op under Cyclon, whose views learn of joiners through
// charged shuffle traffic instead).
func (nd *Node) SetPopulation(n int) { nd.full.N = n }

// bootstrapView seeds the overlay view (cluster wiring).
func (nd *Node) bootstrapView(ids []simnet.NodeID) {
	if nd.cyclon == nil {
		return
	}
	for _, id := range ids {
		nd.cyclon.View().Add(id)
	}
}

// overlayPeers samples k partners from the overlay substrate into
// peerScratch.
func (nd *Node) overlayPeers(k int) []simnet.NodeID {
	if nd.cyclon != nil {
		return nd.viewPeers(nd.cyclon.View(), k)
	}
	nd.peerScratch = nd.full.SamplePeersInto(nd.rng, k, nd.peerScratch)
	return nd.peerScratch
}

// viewPeers samples k partners from v into peerScratch.
func (nd *Node) viewPeers(v *membership.View, k int) []simnet.NodeID {
	nd.peerScratch = v.SampleInto(nd.rng, k, nd.peerScratch)
	return nd.peerScratch
}

// send transmits a wire message and charges the ledger.
func (nd *Node) send(to simnet.NodeID, m *wireMsg, class fairness.Class) {
	size := m.size()
	nd.net.Send(nd.id, to, m, size)
	nd.ledger.AddSend(int(nd.id), class, size)
}

// --- Public API: the three operations of §2 -------------------------------

// Subscribe registers a filter and returns its subscription ID. In topic
// mode, plain topic filters additionally join the topic's gossip group
// through a random-walk subscription (§5.1).
func (nd *Node) Subscribe(f pubsub.Filter) pubsub.SubID {
	id := nd.interest.Subscribe(f)
	nd.ledger.SetFilters(int(nd.id), nd.interest.Count())
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
	ok := nd.interest.Unsubscribe(id)
	if !ok {
		return false
	}
	nd.ledger.SetFilters(int(nd.id), nd.interest.Count())
	if nd.cfg.Mode == ModeTopics {
		for _, topic := range nd.groupOrder {
			if !nd.interest.HasTopic(topic) {
				delete(nd.groups, topic)
			}
		}
		nd.rebuildGroupOrder()
	}
	return true
}

// rebuildGroupOrder re-derives the sorted topic list from the group map.
func (nd *Node) rebuildGroupOrder() {
	nd.groupOrder = nd.groupOrder[:0]
	for topic := range nd.groups {
		nd.groupOrder = append(nd.groupOrder, topic)
	}
	sort.Strings(nd.groupOrder)
}

// Publish originates an event on the given topic. In topic mode a
// publisher that is not itself subscribed hands the event to a group
// member via a publication walk.
func (nd *Node) Publish(topic string, attrs []pubsub.Attr, payload []byte) pubsub.EventID {
	nd.pubSeq++
	ev := &pubsub.Event{
		ID:      pubsub.EventID{Publisher: uint32(nd.id), Seq: nd.pubSeq},
		Topic:   topic,
		Attrs:   attrs,
		Payload: payload,
	}
	nd.ledger.AddPublish(int(nd.id), ev.WireSize())
	nd.seen.Add(ev.ID)
	nd.deliverIfInterested(ev)

	if nd.cfg.Mode == ModeTopics {
		if g, ok := nd.groups[topic]; ok {
			g.buffer.Insert(ev)
		} else {
			nd.publishWalk(ev)
		}
	} else {
		nd.buffer.Insert(ev)
	}
	return ev.ID
}

// --- Round logic -----------------------------------------------------------

// Round executes one gossip period: membership maintenance, dissemination
// in every group (or the flat overlay), buffer aging, and periodically a
// controller update.
func (nd *Node) Round() {
	if !nd.active {
		return
	}
	nd.round++

	if nd.cyclon != nil && nd.round%nd.cfg.ShuffleEvery == 0 {
		nd.initiateShuffle()
	}

	switch nd.cfg.Mode {
	case ModeTopics:
		nd.roundTopics()
	default:
		nd.roundContent()
	}

	if nd.round%nd.cfg.ControlWindow == 0 {
		nd.updateController()
	}
}

func (nd *Node) roundContent() {
	if nd.FreeRide {
		nd.buffer.Tick()
		return
	}
	events := nd.selectEvents(nd.buffer)
	switch {
	case len(events) == 0:
	case nd.cfg.SemanticBias > 0:
		// Semantic mode sends topic-coherent sub-batches: a mixed batch
		// has a blurred fingerprint that matches everyone, so the bias
		// needs per-topic messages to have a signal.
		for _, group := range splitByTopic(events) {
			fp := batchFingerprint(group)
			for _, q := range nd.biasedPeers(nd.fanout, fp) {
				nd.sendGossip(q, "", group, nil)
			}
		}
	default:
		nd.sendGossipAll(nd.overlayPeers(nd.fanout), "", events, nil)
	}
	nd.buffer.Tick()
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
	for _, topic := range nd.groupOrder {
		g := nd.groups[topic]
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
			events = nd.selectEvents(g.buffer)
		}
		heartbeat := nd.round%4 == 0
		if len(events) == 0 && !heartbeat {
			g.buffer.Tick()
			continue
		}
		ads := nd.groupAds(g)
		nd.sendGossipAll(nd.viewPeers(g.view, nd.fanout), topic, events, ads)
		g.buffer.Tick()
	}
}

// groupAds samples a few known members (plus self) to piggyback, keeping
// group views alive without a directory service.
func (nd *Node) groupAds(g *topicGroup) []membership.Entry {
	ads := make([]membership.Entry, 0, adLen+1)
	for _, id := range nd.viewPeers(g.view, adLen) {
		ads = append(ads, membership.Entry{ID: id, Age: 1})
	}
	return append(ads, membership.Entry{ID: nd.id, Age: 0})
}

// selectEvents picks this round's batch from buf into the node's
// reusable scratch; buildGossip copies the batch into the envelope
// before the scratch's next reuse.
func (nd *Node) selectEvents(buf *gossip.Buffer) []*pubsub.Event {
	return buf.SelectInto(nd.rng, &nd.selScratch, nd.batch, nd.cfg.Policy)
}

// buildGossip assembles one gossip wire message in a pooled envelope,
// which comes back with one owner reference; the send paths drop it
// after the fanout.
func (nd *Node) buildGossip(topic string, events []*pubsub.Event, ads []membership.Entry) *wireMsg {
	m := nd.pool.get()
	m.Kind = kindGossip
	m.Topic = topic
	m.Events = append(m.Events[:0], events...)
	m.Ads = append(m.Ads[:0], ads...)
	if nd.Cheat && nd.cfg.JunkPadding > 0 {
		m.Junk = nd.cfg.JunkPadding
	}
	if nd.cfg.SemanticBias > 0 {
		m.FP = interestFingerprint(&nd.interest)
		m.FPAds = nd.fpAds(2)
	}
	return m
}

func (nd *Node) sendGossip(to simnet.NodeID, topic string, events []*pubsub.Event, ads []membership.Entry) {
	m := nd.buildGossip(topic, events, ads)
	nd.send(to, m, fairness.ClassApp)
	m.Release()
}

// sendGossipAll fans one batch out to every peer. The network passes
// payloads by reference and receivers treat them as read-only, so outside
// semantic mode a single wireMsg (and a single size computation) is
// shared across the whole fanout instead of allocating one per peer.
func (nd *Node) sendGossipAll(peers []simnet.NodeID, topic string, events []*pubsub.Event, ads []membership.Entry) {
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
	size := m.size()
	for _, q := range peers {
		nd.net.Send(nd.id, q, m, size)
		nd.ledger.AddSend(int(nd.id), fairness.ClassApp, size)
	}
	m.Release()
}

func (nd *Node) updateController() {
	acct := nd.ledger.Account(int(nd.id))
	delta := fairness.Delta(acct, nd.lastAcct)
	nd.lastAcct = acct
	w := nd.ledger.Weights()
	sample := adaptive.Sample{
		Benefit:      fairness.Benefit(delta, w),
		Contribution: fairness.Contribution(delta, w),
	}
	nd.fanout, nd.batch = nd.ctrl.Update(sample)
}

// --- Membership ------------------------------------------------------------

func (nd *Node) initiateShuffle() {
	target, offer, ok := nd.cyclon.InitiateShuffle(nd.rng)
	if !ok {
		return
	}
	nd.send(target, &wireMsg{Kind: kindShuffle, Entries: offer}, fairness.ClassInfra)
}

// --- Topic-group joining (§5.1) ---------------------------------------------

func (nd *Node) joinGroup(topic string) {
	if _, ok := nd.groups[topic]; ok {
		return
	}
	if nd.groups == nil {
		nd.groups = make(map[string]*topicGroup)
	}
	nd.groups[topic] = &topicGroup{
		view:   membership.NewView(nd.id, topicViewCap),
		buffer: gossip.NewBuffer(nd.cfg.BufferCap, nd.cfg.BufferMaxAge),
	}
	nd.rebuildGroupOrder()
	nd.subscribeWalk(topic)
}

// subscribeWalk launches a random walk that terminates at some subscriber
// of the topic, which replies with group-bootstrap entries.
func (nd *Node) subscribeWalk(topic string) {
	nd.startWalk(&wireMsg{Kind: kindSubWalk, Topic: topic})
}

// publishWalk hands an event from a non-subscribed publisher to the
// topic's group.
func (nd *Node) publishWalk(ev *pubsub.Event) {
	nd.startWalk(&wireMsg{Kind: kindPubWalk, Topic: ev.Topic, Events: []*pubsub.Event{ev}})
}

// startWalk originates a walk at one overlay contact, if there is one.
func (nd *Node) startWalk(m *wireMsg) {
	contacts := nd.overlayPeers(1)
	if len(contacts) == 0 {
		return
	}
	nd.walksSent++
	m.Origin, m.Hops = nd.id, walkHopLimit
	nd.send(contacts[0], m, fairness.ClassInfra)
}

// relayWalk passes a walk this node does not terminate one hop on — the
// §5.1 maintenance burden — avoiding the peer it came from when a
// second draw allows. A walk out of hops dies here.
func (nd *Node) relayWalk(from simnet.NodeID, m *wireMsg) {
	if m.Hops <= 1 {
		return
	}
	nd.walkRelays++
	next := nd.overlayPeers(1)
	if len(next) == 0 || next[0] == from {
		next = nd.overlayPeers(1)
	}
	if len(next) == 0 {
		return
	}
	fwd := *m
	fwd.Hops = m.Hops - 1
	fwd.pool, fwd.refs = nil, 0 // the forwarded copy is plain-allocated
	nd.send(next[0], &fwd, fairness.ClassInfra)
}

// --- Churn (§3.2 penalty) ----------------------------------------------------

// Leave takes the node offline without notice.
func (nd *Node) Leave() {
	nd.active = false
	nd.net.SetUp(nd.id, false)
}

// LeaveGracefully departs with notice — the sim mirror of the live
// runtime's Cluster.Leave. Under Cyclon membership the node hands up to
// ShuffleLen of its freshest view entries to every view neighbour in a
// charged kindLeave message before going offline, so the overlay loses
// an address without losing degree; under the full sampler there are no
// views to repair and the departure reduces to Leave.
func (nd *Node) LeaveGracefully() {
	if !nd.active {
		return
	}
	if nd.cyclon != nil {
		ents := nd.cyclon.View().Entries()
		sort.SliceStable(ents, func(i, j int) bool { return ents[i].Age < ents[j].Age })
		k := nd.cyclon.ShuffleLen()
		for _, to := range ents {
			hand := make([]membership.Entry, 0, k)
			for _, e := range ents {
				if len(hand) == k {
					break
				}
				if e.ID != to.ID {
					hand = append(hand, e)
				}
			}
			// Each message owns its slice: simnet delivers payloads later,
			// by reference.
			nd.send(to.ID, &wireMsg{Kind: kindLeave, Entries: hand}, fairness.ClassInfra)
		}
	}
	nd.Leave()
}

// Rejoin brings the node back, repairing its overlay view through the
// bootstrap contact and charging the configured instability penalty.
func (nd *Node) Rejoin(bootstrap simnet.NodeID) {
	nd.active = true
	nd.net.SetUp(nd.id, true)
	if nd.cfg.RepairPenalty > 0 {
		nd.ledger.AddChurnPenalty(int(nd.id), nd.cfg.RepairPenalty)
	}
	if nd.cyclon != nil {
		nd.send(bootstrap, &wireMsg{Kind: kindViewRepair}, fairness.ClassInfra)
	}
	// Re-join all topic groups (stale views may point to departed peers).
	for _, topic := range nd.groupOrder {
		if nd.groups[topic].view.Len() == 0 {
			nd.subscribeWalk(topic)
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
	case kindGossip:
		nd.handleGossip(msg.From, m)
	case kindShuffle:
		if nd.cyclon == nil {
			return
		}
		reply := nd.cyclon.HandleShuffle(nd.rng, msg.From, m.Entries)
		nd.send(msg.From, &wireMsg{Kind: kindShuffleReply, Entries: reply}, fairness.ClassInfra)
	case kindShuffleReply:
		if nd.cyclon == nil {
			return
		}
		nd.cyclon.HandleReply(msg.From, m.Entries)
	case kindSubWalk:
		nd.handleSubWalk(msg.From, m)
	case kindSubAck:
		nd.handleSubAck(m)
	case kindPubWalk:
		nd.handlePubWalk(msg.From, m)
	case kindViewRepair:
		if nd.cyclon == nil {
			return
		}
		nd.send(msg.From, &wireMsg{
			Kind:    kindViewRepairAck,
			Entries: nd.cyclon.View().Entries(),
		}, fairness.ClassInfra)
		// Knowing the requester is alive is free information: remember it,
		// so a joining node becomes reachable the moment its seed answers.
		nd.cyclon.View().Add(msg.From)
	case kindViewRepairAck:
		if nd.cyclon == nil {
			return
		}
		for _, e := range m.Entries {
			nd.cyclon.View().AddAged(e)
		}
	case kindLeave:
		if nd.cyclon == nil {
			return
		}
		// Forget the leaver, adopt the replacement contacts it handed over.
		nd.cyclon.View().Remove(msg.From)
		for _, e := range m.Entries {
			if e.ID != msg.From {
				nd.cyclon.View().AddAged(e)
			}
		}
	}
}

func (nd *Node) handleGossip(from simnet.NodeID, m *wireMsg) {
	if nd.cfg.SemanticBias > 0 {
		nd.rememberFingerprint(from, m.FP)
		for _, ad := range m.FPAds {
			nd.rememberFingerprint(ad.ID, ad.FP)
		}
	}
	novel, dup := 0, m.Junk
	// Fair-by-structure: in topic mode only group members re-forward.
	// Events for groups we are not in are delivered (if interesting) but
	// never buffered for forwarding.
	buf := nd.buffer
	if nd.cfg.Mode == ModeTopics {
		buf = nil
		if g := nd.groups[m.Topic]; g != nil {
			buf = g.buffer
			for _, ad := range m.Ads {
				g.view.AddAged(ad)
			}
		}
	}
	for _, ev := range m.Events {
		if !nd.seen.Add(ev.ID) {
			dup += ev.WireSize()
			if buf != nil {
				buf.Duplicate(ev.ID, nd.batch)
			}
			continue
		}
		novel += ev.WireSize()
		if buf != nil {
			buf.Insert(ev)
		}
		nd.deliverIfInterested(ev)
	}
	// Novelty audit (§5.2 bias resistance): grade the sender's bytes.
	// This is the one ledger write aimed at ANOTHER process's account, so
	// it goes through the shard's auditSink: a remote sender's controller
	// must never race it mid-window.
	nd.auditSink(int(from), novel, dup)
}

func (nd *Node) handleSubWalk(from simnet.NodeID, m *wireMsg) {
	if g, ok := nd.groups[m.Topic]; ok {
		// We are a subscriber: answer with bootstrap entries and adopt
		// the new member.
		entries := make([]membership.Entry, 0, shuffleLen+1)
		for _, id := range nd.viewPeers(g.view, shuffleLen) {
			entries = append(entries, membership.Entry{ID: id, Age: 1})
		}
		entries = append(entries, membership.Entry{ID: nd.id, Age: 0})
		nd.send(m.Origin, &wireMsg{Kind: kindSubAck, Topic: m.Topic, Entries: entries}, fairness.ClassInfra)
		g.view.Add(m.Origin)
		return
	}
	nd.relayWalk(from, m) // not interested
}

func (nd *Node) handleSubAck(m *wireMsg) {
	g, ok := nd.groups[m.Topic]
	if !ok {
		return // unsubscribed while the walk was in flight
	}
	for _, e := range m.Entries {
		g.view.AddAged(e)
	}
}

func (nd *Node) handlePubWalk(from simnet.NodeID, m *wireMsg) {
	if g, ok := nd.groups[m.Topic]; ok {
		for _, ev := range m.Events {
			if nd.seen.Add(ev.ID) {
				g.buffer.Insert(ev)
				nd.deliverIfInterested(ev)
			}
		}
		return
	}
	nd.relayWalk(from, m)
}

func (nd *Node) deliverIfInterested(ev *pubsub.Event) {
	if !nd.interest.Match(ev) {
		return
	}
	nd.ledger.AddDelivery(int(nd.id))
	if nd.OnDeliver != nil {
		nd.OnDeliver(ev)
	}
}

var _ simnet.Handler = (*Node)(nil)
