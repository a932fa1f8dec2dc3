package gossip

import (
	"math/rand"

	"fairgossip/internal/membership"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

// Msg is one push gossip message: a batch of events.
type Msg struct {
	Events []*pubsub.Event
}

// MsgHeaderSize is the fixed wire overhead of a gossip message.
const MsgHeaderSize = 16

// MsgWireSize returns the accounting size of a gossip message carrying
// the given events.
func MsgWireSize(events []*pubsub.Event) int {
	n := MsgHeaderSize
	for _, ev := range events {
		n += ev.WireSize()
	}
	return n
}

// Config parameterises a basic Fig. 4 peer.
type Config struct {
	Fanout int    // F: partners per round
	Batch  int    // N: events per gossip message
	Policy Policy // SELECTEVENTS policy (default PolicyRandom)

	BufferCap    int // events buffer capacity (default 128)
	BufferMaxAge int // rounds an event stays forwardable (default 8)
	SeenCap      int // duplicate-suppression memory (default 4096)
}

func (c Config) withDefaults() Config {
	if c.Fanout < 0 {
		c.Fanout = 0
	}
	if c.Batch < 1 {
		c.Batch = 1
	}
	if c.Policy == 0 {
		c.Policy = PolicyRandom
	}
	if c.BufferCap < 1 {
		c.BufferCap = 128
	}
	if c.BufferMaxAge < 1 {
		c.BufferMaxAge = 8
	}
	if c.SeenCap < 1 {
		c.SeenCap = 4096
	}
	return c
}

// Peer is a self-contained Fig. 4 process: it implements simnet.Handler
// and exposes a Round method for the timer loop. It has no fairness
// machinery — it is the *classic* gossip baseline whose unfairness the
// paper criticises, and the reliability yardstick of EXP-F4.
type Peer struct {
	ID      simnet.NodeID
	net     *simnet.Network
	sampler membership.Sampler
	rng     *rand.Rand
	cfg     Config

	buffer *Buffer
	seen   *SeenSet

	// IsInterested is Fig. 4's ISINTERESTED(e); nil means interested in
	// everything (the classic-gossip assumption).
	IsInterested func(*pubsub.Event) bool
	// OnDeliver is Fig. 4's DELIVER(e).
	OnDeliver func(*pubsub.Event)

	delivered uint64
	received  uint64
	rounds    uint64

	// antiEntropyEvery > 0 enables push-pull repair every that many
	// rounds; archive is the long-lived retransmission store digests
	// advertise (see pushpull.go).
	antiEntropyEvery int
	archive          *Buffer
}

// NewPeer builds a peer. rng must be a node-private deterministic stream.
func NewPeer(id simnet.NodeID, net *simnet.Network, sampler membership.Sampler, rng *rand.Rand, cfg Config) *Peer {
	cfg = cfg.withDefaults()
	return &Peer{
		ID:      id,
		net:     net,
		sampler: sampler,
		rng:     rng,
		cfg:     cfg,
		buffer:  NewBuffer(cfg.BufferCap, cfg.BufferMaxAge),
		seen:    NewSeenSet(cfg.SeenCap),
	}
}

// Delivered returns how many events this peer has delivered.
func (p *Peer) Delivered() uint64 { return p.delivered }

// Received returns how many gossip messages this peer has received.
func (p *Peer) Received() uint64 { return p.received }

// BufferLen exposes the buffer occupancy (for backlog measurements).
func (p *Peer) BufferLen() int { return p.buffer.Len() }

// Publish injects a locally originated event (Fig. 4's publish maps to
// inserting into `events`; dissemination happens on the next rounds).
func (p *Peer) Publish(ev *pubsub.Event) {
	if p.seen.Add(ev.ID) {
		p.buffer.Insert(ev)
		if p.archive != nil {
			p.archive.Insert(ev)
		}
		p.deliverIfInterested(ev)
	}
}

// Round executes one timer expiry of Fig. 4: select participants, select
// events, send. It then ages the buffer and, when enabled, runs one
// anti-entropy step. TestPeerRoundAllocs pins the round at exactly the
// two allocations called out below plus the sampler's partner slice.
func (p *Peer) Round() {
	p.rounds++
	// In-flight Msg payloads hold the selection beyond this round, so
	// the slice cannot be reused (allocation 1).
	events := p.buffer.Select(p.rng, p.cfg.Batch, p.cfg.Policy)
	if len(events) > 0 {
		size := MsgWireSize(events)
		// One boxed Msg per round, shared by every fanout send
		// (allocation 2).
		var payload any = Msg{Events: events}
		for _, q := range p.sampler.SamplePeers(p.rng, p.cfg.Fanout) {
			p.net.Send(p.ID, q, payload, size)
		}
	}
	// The anti-entropy digest is a deliberate fresh copy (it travels in
	// an in-flight message), paid once every antiEntropyEvery rounds.
	p.antiEntropyRound()
	p.buffer.Tick()
}

// HandleMessage implements simnet.Handler (Fig. 4's RECEIVE handler,
// extended with the anti-entropy message types).
func (p *Peer) HandleMessage(msg simnet.Message) {
	switch m := msg.Payload.(type) {
	case Msg:
		p.received++
		for _, ev := range m.Events {
			if !p.seen.Add(ev.ID) {
				continue // e ∈ delivered ∪ events
			}
			p.buffer.Insert(ev)
			if p.archive != nil {
				p.archive.Insert(ev)
			}
			p.deliverIfInterested(ev)
		}
	case DigestMsg:
		p.handleDigest(msg.From, m)
	case PullReq:
		p.handlePullReq(msg.From, m)
	}
}

func (p *Peer) deliverIfInterested(ev *pubsub.Event) {
	if p.IsInterested != nil && !p.IsInterested(ev) {
		return
	}
	p.delivered++
	if p.OnDeliver != nil {
		p.OnDeliver(ev)
	}
}

var _ simnet.Handler = (*Peer)(nil)
