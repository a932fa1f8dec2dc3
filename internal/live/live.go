// Package live is the real-concurrency runtime: one goroutine per peer,
// a pluggable transport as the links, and wall-clock tickers for gossip
// rounds. It runs the same content-mode FairGossip protocol as
// internal/core but against Go's scheduler instead of the deterministic
// simulator — the form a deployed system (and the runnable examples)
// would use.
//
// Messages move as encoded bytes: each round a peer packs its selected
// events into one wire envelope (internal/wire) and hands the bytes to
// its transport endpoint (internal/transport); receivers validate the
// envelope, dedup on the event ids, and decode — into events they own
// outright — only what they have not seen. The default ChanTransport
// delivers the bytes in-process; Config.Transport swaps in real
// loopback UDP sockets (transport.UDP()) with no protocol change.
// Because the envelope
// encoding is sized exactly like the accounting formula the ledger has
// always charged (wire.EnvelopeSize == gossip.MsgWireSize), the
// contribution a peer is billed is literally the number of bytes put on
// the wire.
//
// Membership is a partial view, not a roster: each peer runs the Cyclon
// view-shuffling protocol (membership.Cyclon) as real wire traffic —
// shuffle offers and replies are encoded envelopes, charged to the
// fairness ledger as infrastructure contribution, byte for byte
// (wire.MembershipSize is both the encoded and the charged size).
// Partner selection samples the peer's current view; nothing on the
// gossip path reads a full membership list, which is what lets clusters
// grow while running: Join boots a new peer mid-run that announces
// itself to a seed and integrates through ordinary shuffles. Hostile or
// stale view entries (a crashed peer, a garbage id off the wire) are
// self-healing: they age, become shuffle targets, draw no reply, and
// are culled — every send they attract lands in a counted drop bucket.
//
// Concurrency model: each peer's protocol state is owned by its single
// goroutine. External calls (Subscribe, Publish) are funneled into the
// peer loop through a command channel and executed there, so no protocol
// state needs locks. The peer table itself lives behind an atomic
// pointer and grows copy-on-write (peers never move), so Join does not
// block running peers. The shared fairness.Ledger is internally
// synchronised. A peer whose inbox overflows drops messages, which is
// exactly how a saturated UDP socket behaves — except here every such
// drop is counted (see Traffic), so load can never lose messages
// invisibly.
package live

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fairgossip/internal/adaptive"
	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/membership"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/transport"
	"fairgossip/internal/wire"
)

// Config parameterises a live cluster.
type Config struct {
	// N is the number of founding peers (minimum 2); Join can grow the
	// population afterwards.
	N int
	// Fanout and Batch are the initial (or static) levers. Defaults 4/8.
	Fanout int
	Batch  int
	// RoundPeriod is the gossip period (default 20ms — examples want to
	// finish quickly; a WAN deployment would use 1s+). Each peer's rounds
	// fall on a fixed grid of this period at a phase drawn once from its
	// seeded RNG, so the rate is RoundPeriod exactly, however long a
	// round's work takes; ticks a stalled peer missed are skipped, not
	// replayed.
	RoundPeriod time.Duration
	// TargetRatio > 0 enables the AIMD fairness controller with that
	// contribution-per-benefit target; 0 keeps static levers.
	TargetRatio float64
	// InboxDepth is the per-peer channel buffer (default 1024).
	InboxDepth int
	// BufferMaxAge is how many rounds an event stays forwardable at
	// most (default 8; raise it for bursty publication loads); 2 × batch
	// returned copies retire it sooner (gossip.Buffer.Duplicate).
	BufferMaxAge int
	// Policy is the SELECTEVENTS policy (default random; least-sent
	// guarantees fresh events win send slots under backlog).
	Policy gossip.Policy
	// ViewCap is each peer's partial-view capacity (default 16),
	// ShuffleEvery the rounds between a peer's shuffle initiations
	// (default 2).
	ViewCap      int
	ShuffleEvery int
	// EvictStrikes is the failure detector's threshold: a view entry
	// whose peer leaves this many consecutive shuffle offers unanswered
	// is evicted and quarantined (default 3). The detector rides the
	// ordinary Cyclon traffic — no extra probe messages, no extra bytes.
	EvictStrikes int
	// QuarantineRounds is how many rounds an evicted address is refused
	// from incoming view entries before it gets the benefit of the
	// doubt again (default 64). Direct contact lifts it immediately.
	QuarantineRounds int
	// JoinAttempts bounds how many times an isolated joiner re-announces
	// itself before giving up (default 8). Attempts are spaced by capped
	// exponential backoff with seeded jitter; a give-up is surfaced by
	// JoinErr and counted in Traffic().JoinGiveUps.
	JoinAttempts int
	// JoinBackoffCap caps the backoff between announcements, in
	// membership rounds (default 16).
	JoinBackoffCap int
	// Seed drives per-peer randomness (peer i uses Seed^i).
	Seed int64
	// Transport selects the message substrate: nil means in-process
	// channel delivery (transport.Chan(), the historical semantics);
	// transport.UDP() runs one real loopback datagram socket per peer.
	// Any custom Factory plugs in the same way.
	Transport transport.Factory
	// Shape, when non-nil, wraps the transport in the shaping middleware
	// (transport.Shape) with this initial profile — per-link delay,
	// jitter, reorder and loss, all from a seeded RNG. The zero Profile
	// is inert but still installs the middleware, which is what lets
	// SetShape act mid-run. A zero Profile.Seed is filled from
	// Config.Seed. Nil keeps the transport bare (the historical
	// semantics, byte for byte).
	Shape *transport.Profile
}

const (
	controlWindow = 5 // rounds between controller updates
	shuffleLen    = 8 // entries exchanged per Cyclon shuffle (NewCyclon clamps it to ViewCap)
)

func (c Config) withDefaults() Config {
	if c.N < 2 {
		c.N = 2
	}
	if c.Fanout <= 0 {
		c.Fanout = 4
	}
	if c.Batch <= 0 {
		c.Batch = 8
	}
	if c.RoundPeriod <= 0 {
		c.RoundPeriod = 20 * time.Millisecond
	}
	if c.InboxDepth <= 0 {
		c.InboxDepth = 1024
	}
	if c.BufferMaxAge <= 0 {
		c.BufferMaxAge = 8
	}
	if c.Policy == 0 {
		c.Policy = gossip.PolicyRandom
	}
	if c.ViewCap <= 0 {
		c.ViewCap = 16
	}
	if c.ShuffleEvery <= 0 {
		c.ShuffleEvery = 2
	}
	if c.EvictStrikes <= 0 {
		c.EvictStrikes = 3
	}
	if c.QuarantineRounds <= 0 {
		c.QuarantineRounds = 64
	}
	if c.JoinAttempts <= 0 {
		c.JoinAttempts = 8
	}
	if c.JoinBackoffCap <= 0 {
		c.JoinBackoffCap = 16
	}
	return c
}

// faults is the cluster-wide fault-injection state (per-peer state —
// crashed, free-riding, partition group — lives on the peer structs, so
// it grows with the cluster). Scenario drivers flip it from outside the
// peer goroutines, so every field is atomic; the zero value injects
// nothing.
type faults struct {
	split atomic.Bool
	loss  atomic.Uint64 // i.i.d. link-loss probability, stored as float64 bits
}

// dropLink reports whether a message from -> to should be lost to an
// injected fault. rng is the sender's own stream (loss draws stay
// per-goroutine).
func (f *faults) dropLink(from, to *peer, rng *rand.Rand) bool {
	if to.down.Load() {
		return true
	}
	if f.split.Load() && from.group.Load() != to.group.Load() {
		return true
	}
	if p := math.Float64frombits(f.loss.Load()); p > 0 && rng.Float64() < p {
		return true
	}
	return false
}

// traffic is the cluster's envelope-level message accounting, mirroring
// what simnet counts for the simulator. Everything is atomic: senders,
// transport readers and observers touch it concurrently.
type traffic struct {
	sent           atomic.Uint64
	recv           atomic.Uint64
	faultDrops     atomic.Uint64
	inboxDrops     atomic.Uint64
	transportDrops atomic.Uint64
	malformed      atomic.Uint64
	joinGiveUps    atomic.Uint64
}

// Traffic is a snapshot of the cluster's envelope-level counters. The
// conservation identity Sent == Recv + Dropped holds exactly on the
// chan transport at any quiescent point, and on UDP once the transport
// has quiesced (Stop does that) — a shortfall means the network lost
// datagrams the runtime could not see.
type Traffic struct {
	// Sent counts send attempts, one per (envelope, destination). The
	// sender is charged for every attempt.
	Sent uint64
	// Recv counts envelopes accepted into a peer's inbox.
	Recv uint64
	// Dropped is every counted loss: FaultDrops + InboxDrops +
	// TransportDrops + ShaperDrops. A message can only land in one
	// bucket: the fault check runs before the envelope reaches the
	// shaper — so shaping composed with scenario faults never
	// double-counts a loss.
	Dropped uint64
	// FaultDrops: injected faults ate it (crashed destination,
	// partition, i.i.d. loss).
	FaultDrops uint64
	// InboxDrops: the destination's inbox was full — the bug this
	// counter exists for used to be silent.
	InboxDrops uint64
	// TransportDrops: the transport refused or failed the send
	// (oversized datagram, closed socket, an address nobody holds).
	TransportDrops uint64
	// ShaperDrops: the shaping middleware ate it (profile loss, or a
	// deferred delivery the substrate refused). Zero unless
	// Config.Shape installed the shaper.
	ShaperDrops uint64
	// Malformed counts received envelopes that failed to decode or
	// carried an invalid sender (a subset of Recv, not of Dropped).
	Malformed uint64
	// JoinGiveUps counts joiners that abandoned the handshake after
	// Config.JoinAttempts announcements (not part of Dropped: nothing
	// was sent, which is the point of giving up).
	JoinGiveUps uint64
}

// Cluster is a set of live peers. Create with NewCluster, then Start;
// Join grows a running cluster; Stop blocks until every peer goroutine
// has exited.
type Cluster struct {
	cfg     Config
	ledger  *fairness.Ledger
	peers   atomic.Pointer[[]*peer] // copy-on-write: Join appends, peers never move
	faults  *faults
	net     transport.Net
	shaped  *transport.ShapedNet // non-nil iff Config.Shape installed the middleware
	traffic traffic

	stop    chan struct{}
	wg      sync.WaitGroup
	started bool       // guarded by mu
	stopped bool       // guarded by mu
	mu      sync.Mutex // guards started/stopped and structural growth (Join)
}

type peer struct {
	id       int
	c        *Cluster
	rng      *rand.Rand
	tr       transport.Transport
	inbox    chan []byte
	cmds     chan func()
	buffer   *gossip.Buffer
	seen     *gossip.SeenSet
	in       pubsub.Interest
	ctrl     adaptive.Controller
	cyclon   *membership.Cyclon
	joinSeed int // seed to (re)announce to while the view is empty; -1 for founders
	fanout   int
	batch    int
	rounds   int
	last     fairness.Account
	pubSeq   uint32
	deliver  func(*pubsub.Event)

	// Failure-detector state (peer-goroutine-owned): the outstanding
	// shuffle probe and the evidence ledger behind eviction decisions.
	det        detector
	probe      simnet.NodeID // current unanswered shuffle target, or None
	probeEntry membership.Entry

	// Join-handshake backoff (peer-goroutine-owned except the flag,
	// which JoinErr reads from outside).
	joinAttempts int
	joinWait     int // membership rounds to sit out before re-announcing
	joinFailed   atomic.Bool

	// Per-peer fault state (atomic: scenario drivers flip it from
	// outside the peer goroutine).
	down  atomic.Bool
	free  atomic.Bool
	group atomic.Int32

	env     wire.Envelope      // scan scratch: backing arrays are reused; Records alias the buffer in receive
	targets []simnet.NodeID    // SampleInto scratch for partner selection
	sample  []int              // int-converted partner scratch
	sel     []*pubsub.Event    // SelectInto scratch: the selection dies at encode
	entOut  []wire.ViewEntry   // membership encode scratch
	entIn   []membership.Entry // membership decode conversion scratch
}

// NewCluster builds a stopped cluster. The only error source is the
// transport factory (socket transports can fail to bind); the default
// in-process transport never fails.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	factory := cfg.Transport
	if factory == nil {
		factory = transport.Chan()
	}
	nw, err := factory(cfg.N)
	if err != nil {
		return nil, err
	}
	var shaped *transport.ShapedNet
	if cfg.Shape != nil {
		prof := *cfg.Shape
		if prof.Seed == 0 {
			prof.Seed = cfg.Seed ^ 0x5ead
		}
		shaped = transport.Shape(nw, prof)
		nw = shaped
	}
	c := &Cluster{
		cfg:    cfg,
		ledger: fairness.NewLedger(cfg.N, fairness.DefaultWeights()),
		faults: &faults{},
		net:    nw,
		shaped: shaped,
		stop:   make(chan struct{}),
	}
	peers := make([]*peer, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		p := c.newPeer(i)
		tr, err := nw.Attach(i, p.ingress)
		if err != nil {
			_ = nw.Close()
			return nil, err
		}
		p.tr = tr
		peers = append(peers, p)
	}
	// Bootstrap overlay views with random contacts (a join service in a
	// deployed system; free here, like handing out a seed-peer list —
	// late joiners pay for their introduction instead, see Join).
	boot := rand.New(rand.NewSource(cfg.Seed + 7))
	k := cfg.ViewCap / 2
	if k < 3 {
		k = 3
	}
	if k > cfg.N-1 {
		k = cfg.N - 1
	}
	for _, p := range peers {
		for added := 0; added < k; added++ {
			cand := boot.Intn(cfg.N)
			if cand == p.id {
				added--
				continue
			}
			p.cyclon.View().Add(simnet.NodeID(cand))
		}
	}
	c.peers.Store(&peers)
	return c, nil
}

// newPeer builds one peer's protocol state (transport endpoint attached
// by the caller).
func (c *Cluster) newPeer(id int) *peer {
	cfg := c.cfg
	var ctrl adaptive.Controller
	if cfg.TargetRatio > 0 {
		ctrl = adaptive.NewAIMD(adaptive.Config{
			TargetRatio: cfg.TargetRatio,
			Limits:      adaptive.DefaultLimits(cfg.N),
		}, adaptive.LeverBoth, cfg.Fanout, cfg.Batch)
	} else {
		ctrl = adaptive.Static{F: cfg.Fanout, N: cfg.Batch}
	}
	p := &peer{
		id:       id,
		c:        c,
		rng:      rand.New(rand.NewSource(cfg.Seed ^ int64(id*2654435761+1))),
		inbox:    make(chan []byte, cfg.InboxDepth),
		cmds:     make(chan func(), 64),
		buffer:   gossip.NewBuffer(256, cfg.BufferMaxAge),
		seen:     gossip.NewSeenSet(8192),
		ctrl:     ctrl,
		cyclon:   membership.NewCyclon(membership.NewView(simnet.NodeID(id), cfg.ViewCap), shuffleLen),
		joinSeed: -1,
		det:      newDetector(cfg.EvictStrikes, cfg.QuarantineRounds),
		probe:    simnet.None,
	}
	p.fanout, p.batch = ctrl.Fanout(), ctrl.Batch()
	return p
}

// peerList returns the current peer table (immutable snapshot).
func (c *Cluster) peerList() []*peer { return *c.peers.Load() }

// peerAt returns peer id, or nil when id is not (yet) in the table.
func (c *Cluster) peerAt(id int) *peer {
	peers := c.peerList()
	if id < 0 || id >= len(peers) {
		return nil
	}
	return peers[id]
}

// N returns the current population size (founders plus joiners).
func (c *Cluster) N() int { return len(c.peerList()) }

// Ledger exposes the shared fairness ledger (safe for concurrent reads).
func (c *Cluster) Ledger() *fairness.Ledger { return c.ledger }

// Report returns the cluster-wide fairness report.
func (c *Cluster) Report() fairness.Report { return c.ledger.Report() }

// Traffic returns the cluster's envelope-level traffic counters.
func (c *Cluster) Traffic() Traffic {
	t := Traffic{
		Sent:           c.traffic.sent.Load(),
		Recv:           c.traffic.recv.Load(),
		FaultDrops:     c.traffic.faultDrops.Load(),
		InboxDrops:     c.traffic.inboxDrops.Load(),
		TransportDrops: c.traffic.transportDrops.Load(),
		Malformed:      c.traffic.malformed.Load(),
		JoinGiveUps:    c.traffic.joinGiveUps.Load(),
	}
	if c.shaped != nil {
		t.ShaperDrops = c.shaped.Drops()
	}
	t.Dropped = t.FaultDrops + t.InboxDrops + t.TransportDrops + t.ShaperDrops
	return t
}

// Addr returns peer id's transport address ("chan://3" in-process, a
// real socket address on UDP), or "" for invalid ids.
func (c *Cluster) Addr(id int) string {
	p := c.peerAt(id)
	if p == nil {
		return ""
	}
	return p.tr.LocalAddr()
}

// Start launches every peer goroutine. Idempotent.
func (c *Cluster) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started || c.stopped {
		return
	}
	c.started = true
	for _, p := range c.peerList() {
		p := p
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			p.loop()
		}()
	}
}

// Join boots a new peer into the cluster through seed: the joiner gets
// a fresh transport endpoint (on UDP, a newly bound socket), a view
// holding only the seed's address, and a goroutine that announces
// itself with a join envelope — real, ledger-charged infrastructure
// traffic — then integrates through ordinary view shuffles. It returns
// the new peer's id. Joining is legal before Start (the peer launches
// with the rest) or while the cluster runs; after Stop it fails.
func (c *Cluster) Join(seed int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return 0, fmt.Errorf("live: cluster is stopped")
	}
	peers := c.peerList()
	if seed < 0 || seed >= len(peers) {
		return 0, fmt.Errorf("live: seed peer %d out of range [0,%d)", seed, len(peers))
	}
	id := len(peers)
	p := c.newPeer(id)
	p.joinSeed = seed
	p.cyclon.View().Add(simnet.NodeID(seed))
	tr, err := c.net.Attach(id, p.ingress)
	if err != nil {
		// Nothing to roll back: the ledger has not grown yet (Grow has
		// no inverse, and a phantom account would skew fairness reports
		// and admit forged sender ids).
		return 0, fmt.Errorf("live: attach joining peer %d: %w", id, err)
	}
	p.tr = tr
	// Grow the ledger before the peer becomes visible: the joiner's id
	// first reaches the wire after the table store below, so any peer
	// that can observe it is already able to account for it.
	c.ledger.Grow(id + 1)
	grown := make([]*peer, id+1)
	copy(grown, peers)
	grown[id] = p
	c.peers.Store(&grown)
	if c.started {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			p.loop()
		}()
	}
	return id, nil
}

// Stop signals every peer to exit, waits for them, then closes the
// transport (for sockets that includes a bounded quiesce, so traffic
// counters are settled when Stop returns). Idempotent.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	started := c.started
	c.stopped = true
	c.mu.Unlock()
	if started {
		close(c.stop)
		c.wg.Wait()
	}
	_ = c.net.Close()
}

// do runs fn with exclusive access to peer id's state and waits for it to
// complete: inline before Start (setup is single-threaded), through the
// peer's command channel afterwards. It returns false if the cluster is
// stopped or the id is invalid.
func (c *Cluster) do(id int, fn func()) bool {
	p := c.peerAt(id)
	if p == nil {
		return false
	}
	c.mu.Lock()
	started, stopped := c.started, c.stopped
	c.mu.Unlock()
	if stopped {
		return false
	}
	if !started {
		fn()
		return true
	}
	done := make(chan struct{})
	select {
	case p.cmds <- func() { fn(); close(done) }:
	case <-c.stop:
		return false
	}
	select {
	case <-done:
		return true
	case <-c.stop:
		return false
	}
}

// Subscribe registers a filter on a peer and returns its subscription ID.
func (c *Cluster) Subscribe(id int, f pubsub.Filter) (pubsub.SubID, bool) {
	var sub pubsub.SubID
	ok := c.do(id, func() {
		p := c.peerAt(id)
		sub = p.in.Subscribe(f)
		c.ledger.SetFilters(id, p.in.Count())
	})
	return sub, ok
}

// Unsubscribe removes a subscription from a peer.
func (c *Cluster) Unsubscribe(id int, sub pubsub.SubID) bool {
	removed := false
	ok := c.do(id, func() {
		p := c.peerAt(id)
		removed = p.in.Unsubscribe(sub)
		c.ledger.SetFilters(id, p.in.Count())
	})
	return ok && removed
}

// OnDeliver installs a delivery observer on a peer (call before or after
// Start; it runs on the peer's goroutine). The delivered event is never
// shared with another peer's goroutine (each receiver decodes its own
// copy off the wire), but it IS the copy this peer keeps buffered for
// forwarding — treat it as read-only, or the peer forwards the
// mutation.
func (c *Cluster) OnDeliver(id int, fn func(*pubsub.Event)) bool {
	return c.do(id, func() { c.peerAt(id).deliver = fn })
}

// Levers reports a peer's current fanout and batch levers (synchronised
// through the peer's own goroutine).
func (c *Cluster) Levers(id int) (fanout, batch int, ok bool) {
	ok = c.do(id, func() {
		p := c.peerAt(id)
		fanout, batch = p.fanout, p.batch
	})
	return fanout, batch, ok
}

// View returns a snapshot of a peer's current partial view
// (synchronised through the peer's own goroutine), or nil for invalid
// ids.
func (c *Cluster) View(id int) []int {
	var out []int
	c.do(id, func() {
		for _, e := range c.peerAt(id).cyclon.View().Entries() {
			out = append(out, int(e.ID))
		}
	})
	return out
}

// Views snapshots every peer's partial view at once, indexed by peer
// id. While the cluster runs each snapshot goes through its peer's
// goroutine like View; after Stop the goroutines are gone (Stop waits
// for them) and the read is direct — which is what lets the scenario
// engine's view-hygiene invariant inspect views after Close.
func (c *Cluster) Views() [][]int {
	c.mu.Lock()
	running := c.started && !c.stopped
	c.mu.Unlock()
	peers := c.peerList()
	out := make([][]int, len(peers))
	for i, p := range peers {
		if running {
			out[i] = c.View(i)
			continue
		}
		ids := p.cyclon.View().IDs()
		v := make([]int, len(ids))
		for j, id := range ids {
			v[j] = int(id)
		}
		out[i] = v
	}
	return out
}

// ErrJoinAbandoned is JoinErr's verdict for a joiner that exhausted its
// announcement budget without ever building a view.
var ErrJoinAbandoned = errors.New("live: join handshake abandoned after bounded retries")

// JoinErr reports the join handshake's outcome for a peer: nil while
// the handshake is pending or succeeded, ErrJoinAbandoned once the
// peer has given up (Config.JoinAttempts announcements, capped
// exponential backoff between them, and still no view).
func (c *Cluster) JoinErr(id int) error {
	p := c.peerAt(id)
	if p == nil {
		return fmt.Errorf("live: no peer %d", id)
	}
	if p.joinFailed.Load() {
		return ErrJoinAbandoned
	}
	return nil
}

// --- Fault injection ---------------------------------------------------------
//
// These mirror the simulated network's fault surface (simnet.SetUp,
// Partition, Heal, SetLoss plus core's Leave/Rejoin and free-riding), so
// a scenario schedule can drive both runtimes identically. All are safe
// to call at any time from any goroutine.

// Crash takes a peer offline without notice: it stops gossiping, drops
// everything in its inbox, and other peers' messages to it are lost —
// the live analogue of core.Node.Leave.
func (c *Cluster) Crash(id int) bool {
	p := c.peerAt(id)
	if p == nil {
		return false
	}
	p.down.Store(true)
	return true
}

// Leave departs a peer gracefully: on its own goroutine it hands its
// freshest view entries to every view neighbour in KindLeave envelopes
// (real, ledger-charged infrastructure traffic), then goes silent
// exactly like a crashed peer. Compare Crash, the departure without
// notice. Returns false for invalid ids or a stopped cluster.
func (c *Cluster) Leave(id int) bool {
	return c.do(id, func() {
		p := c.peerAt(id)
		if p.down.Load() {
			return // already offline: nothing to announce
		}
		p.sendLeave()
		p.down.Store(true)
	})
}

// Rejoin brings a crashed peer back. Its buffer, dedup memory and
// partial view survive the outage, like a process that was suspended
// rather than wiped; stale view entries heal through shuffling.
func (c *Cluster) Rejoin(id int) bool {
	p := c.peerAt(id)
	if p == nil {
		return false
	}
	p.down.Store(false)
	return true
}

// Up reports whether the peer is currently up (not crashed).
func (c *Cluster) Up(id int) bool {
	p := c.peerAt(id)
	return p != nil && !p.down.Load()
}

// SetFreeRider makes a peer stop forwarding while still receiving and
// delivering — the classic gossip defector. Membership maintenance
// continues, so the free-rider stays reachable (and keeps benefiting).
func (c *Cluster) SetFreeRider(id int, on bool) bool {
	p := c.peerAt(id)
	if p == nil {
		return false
	}
	p.free.Store(on)
	return true
}

// Partition splits the cluster: peers in side keep talking to each other
// but lose connectivity with everyone else until Heal is called. Peers
// joining during a split land on the majority (zero) side.
func (c *Cluster) Partition(side []int) {
	peers := c.peerList()
	for _, p := range peers {
		p.group.Store(0)
	}
	for _, id := range side {
		if id >= 0 && id < len(peers) {
			peers[id].group.Store(1)
		}
	}
	c.faults.split.Store(true)
}

// Heal removes any partition.
func (c *Cluster) Heal() { c.faults.split.Store(false) }

// SetLoss sets the i.i.d. per-message drop probability (clamped to [0,1]).
func (c *Cluster) SetLoss(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	c.faults.loss.Store(math.Float64bits(p))
}

// SetShape swaps the shaping middleware's profile mid-run (delay,
// jitter, reorder, loss). Returns false when the cluster was built
// without Config.Shape — shaping cannot be bolted on after
// construction, because peers hold their transport endpoints.
func (c *Cluster) SetShape(p transport.Profile) bool {
	if c.shaped == nil {
		return false
	}
	c.shaped.SetProfile(p)
	return true
}

// Rebind moves an up peer to a fresh transport address — the mobile
// peer primitive. On substrates that implement transport.Rebinder (UDP,
// shaped-UDP) the endpoint really moves, make-before-break; in-process
// substrates have nothing to rebind and only the protocol part runs.
// Either way the peer then re-announces itself through the ordinary
// join path (real, ledger-charged traffic) using a seed drawn from its
// current view, so the overlay re-learns the peer promptly at its new
// address. Runs on the peer's own goroutine; returns false for invalid
// ids or a stopped cluster.
func (c *Cluster) Rebind(id int) bool {
	return c.do(id, func() {
		p := c.peerAt(id)
		if p.down.Load() {
			return
		}
		if rb, ok := c.net.(transport.Rebinder); ok {
			_, _ = rb.Rebind(id) // in-process substrates: nothing to move
		}
		if ents := p.cyclon.View().Entries(); len(ents) > 0 {
			p.joinSeed = int(ents[p.rng.Intn(len(ents))].ID)
		}
		if p.joinSeed < 0 {
			return // an isolated founder has nobody to re-announce to
		}
		// Fresh handshake budget: the re-announcement is attempt #1, and
		// the ordinary backoff machinery covers a silent seed.
		p.joinAttempts, p.joinWait = 0, 0
		p.joinFailed.Store(false)
		p.sendJoin()
		p.joinAttempts++
	})
}

// Publish originates an event at the given peer.
func (c *Cluster) Publish(id int, topic string, attrs []pubsub.Attr, payload []byte) bool {
	return c.do(id, func() {
		p := c.peerAt(id)
		p.pubSeq++
		ev := &pubsub.Event{
			ID:      pubsub.EventID{Publisher: uint32(id), Seq: p.pubSeq},
			Topic:   topic,
			Attrs:   attrs,
			Payload: payload,
		}
		c.ledger.AddPublish(id, ev.WireSize())
		p.seen.Add(ev.ID)
		p.buffer.Insert(ev)
		p.deliverIfInterested(ev)
	})
}

// --- peer loop ---------------------------------------------------------------

// ingress is the transport delivery callback: a non-blocking inbox push
// with counted overflow. It runs on the sender's goroutine (chan
// transport) or the socket reader's (UDP); either way it must not
// block, and a full inbox is a counted drop — a saturated socket
// buffer whose loss the books still see.
func (p *peer) ingress(buf []byte) {
	select {
	case p.inbox <- buf:
		p.c.traffic.recv.Add(1)
	default:
		p.c.traffic.inboxDrops.Add(1)
	}
}

func (p *peer) loop() {
	// A joiner announces itself before its first round: the seed learns
	// the new address immediately and replies with bootstrap entries.
	// Routing through announce() makes this attempt #1 of the bounded,
	// backed-off handshake.
	if p.joinSeed >= 0 {
		p.announce()
	}
	// Rounds fall on a fixed per-peer grid: start + period + jitter, then
	// every period after that. The jitter desynchronises the peers; the
	// absolute deadline keeps them that way — re-arming relative to when
	// a round's work ended would stretch the period by that work and let
	// every late wake-up pull the timers it covers onto one phase.
	period := p.c.cfg.RoundPeriod
	jitter := time.Duration(p.rng.Int63n(int64(period)))
	next := time.Now().Add(period + jitter)
	timer := time.NewTimer(time.Until(next))
	defer timer.Stop()
	for {
		select {
		case <-p.c.stop:
			return
		case cmd := <-p.cmds:
			cmd()
		case buf := <-p.inbox:
			p.receive(buf)
		case <-timer.C:
			p.round()
			next = nextTick(next, time.Now(), period)
			timer.Reset(time.Until(next))
		}
	}
}

// nextTick returns the round deadline that follows the one that was due
// at due, as seen at now: the next grid point, or — when the peer fell
// more than a period behind — the first grid point still in the future.
// Ticks lost to a stall are skipped, never replayed: a peer that slept
// through five rounds runs one, not a burst of five.
func nextTick(due, now time.Time, period time.Duration) time.Time {
	next := due.Add(period)
	if late := now.Sub(next); late > 0 {
		next = next.Add((late/period + 1) * period)
	}
	return next
}

// round runs one timer expiry. TestLiveRoundPathAllocs pins the steady
// state at exactly one allocation (gossip's envelope buffer).
func (p *peer) round() {
	if p.down.Load() {
		return // crashed: no protocol activity at all
	}
	p.rounds++
	// Membership maintenance runs for free-riders too (they stay
	// reachable, like core's defectors), never for crashed peers.
	if p.rounds%p.c.cfg.ShuffleEvery == 0 {
		// Shuffle offers are deliberate fresh copies (they travel in
		// in-flight messages), paid once every ShuffleEvery rounds.
		p.membershipRound()
	}
	// A free-rider receives and delivers but never forwards; its buffer
	// still ages so it does not hoard a backlog to replay on reform.
	if !p.free.Load() {
		p.gossip()
	}
	p.buffer.Tick()
	if p.rounds%controlWindow == 0 {
		acct := p.c.ledger.Account(p.id)
		delta := fairness.Delta(acct, p.last)
		p.last = acct
		w := p.c.ledger.Weights()
		p.fanout, p.batch = p.ctrl.Update(adaptive.Sample{
			Benefit:      fairness.Benefit(delta, w),
			Contribution: fairness.Contribution(delta, w),
		})
	}
}

// membershipRound runs one Cyclon step: settle the previous shuffle's
// probe verdict, then age the view, cull the oldest entry as shuffle
// target, and send it our offer — which doubles as the failure
// detector's probe of that target. An isolated peer (a joiner whose
// handshake died, or a view decimated by churn) falls back to
// re-announcing itself to its join seed, under capped backoff.
func (p *peer) membershipRound() {
	p.resolveProbe()
	// Capture the current oldest before initiating: IncrementAges
	// preserves the age order (ties and all), so this is the entry
	// InitiateShuffle is about to cull, at one round younger.
	old, _ := p.cyclon.View().Oldest()
	target, offer, ok := p.cyclon.InitiateShuffle(p.rng)
	if !ok {
		p.announce()
		return
	}
	// A non-empty view means the peer is integrated; a later isolation
	// (churn eating the whole view) gets a fresh retry budget.
	p.joinAttempts, p.joinWait = 0, 0
	p.joinFailed.Store(false)
	p.probe = target
	p.probeEntry = membership.Entry{ID: target, Age: old.Age + 1}
	p.sendMembership(wire.KindShuffleOffer, int(target), offer)
}

// resolveProbe settles the verdict on the previous membership round's
// shuffle target. Silence since then is a strike; EvictStrikes
// consecutive strikes evicts and quarantines the address. Anything
// less restores the culled entry with its age frozen (MarkSuspect), so
// it stays the oldest, is re-targeted promptly, and third-party
// re-offers cannot launder the suspicion away.
func (p *peer) resolveProbe() {
	if p.probe == simnet.None {
		return
	}
	id := p.probe
	p.probe = simnet.None
	v := p.cyclon.View()
	if p.det.strike(id) {
		p.det.bury(id, p.rounds)
		// The shuffle already culled the entry; a third party may have
		// re-offered it mid-probe, so remove defensively.
		v.Remove(id)
		return
	}
	v.AddAged(p.probeEntry)
	v.MarkSuspect(id)
}

// noteAlive records direct contact from a peer: every piece of
// detector evidence against it is void, a pending probe of it is
// answered, and any view suspicion is cleared.
func (p *peer) noteAlive(from simnet.NodeID) {
	p.det.alive(from)
	if p.probe == from {
		p.probe = simnet.None
	}
	p.cyclon.View().ClearSuspect(from)
}

// announce re-sends the join announcement under capped exponential
// backoff with seeded jitter. After Config.JoinAttempts announcements
// with no usable view the peer gives up: the abandonment is surfaced
// through JoinErr and counted in Traffic().JoinGiveUps, instead of the
// old behaviour of re-announcing every membership round forever.
func (p *peer) announce() {
	if p.joinSeed < 0 || p.joinFailed.Load() {
		return // founders have no seed; a given-up joiner stays quiet
	}
	if p.joinWait > 0 {
		p.joinWait--
		return
	}
	if p.joinAttempts >= p.c.cfg.JoinAttempts {
		p.joinFailed.Store(true)
		p.c.traffic.joinGiveUps.Add(1)
		return
	}
	p.sendJoin()
	p.joinAttempts++
	backoff := p.c.cfg.JoinBackoffCap
	if s := p.joinAttempts - 1; s < 10 && 1<<s < backoff {
		backoff = 1 << s
	}
	p.joinWait = backoff + p.rng.Intn(backoff)
}

// gossip runs one round's push: SELECTEVENTS, SELECTPARTICIPANTS,
// encode once, send the shared immutable bytes to every partner.
func (p *peer) gossip() {
	// The selection runs over peer-owned scratch: it dies at the encode
	// below, so unlike the envelope it never leaves this frame.
	events := p.buffer.SelectInto(p.rng, &p.sel, p.batch, p.c.cfg.Policy)
	if len(events) == 0 {
		return
	}
	targets := p.samplePeers(p.fanout)
	if len(targets) == 0 {
		return
	}
	// The envelope buffer must be fresh each round — receivers hold it
	// asynchronously, so it cannot be pooled — and it is the round
	// path's one allocation (TestLiveRoundPathAllocs pins exactly that).
	buf, err := wire.AppendEnvelope(make([]byte, 0, wire.EnvelopeSize(events)), uint32(p.id), events)
	if err != nil {
		// Unencodable events (a topic beyond the u16 framing, say)
		// cannot be gossiped; skip the fanout without charging anyone.
		return
	}
	for _, q := range targets {
		p.send(q, buf, fairness.ClassApp)
	}
}

// samplePeers draws up to k distinct partners from the peer's partial
// view — SELECTPARTICIPANTS(F) over the membership substrate, not a
// full roster. SampleInto runs over reused scratch, so steady-state
// rounds allocate nothing here.
func (p *peer) samplePeers(k int) []int {
	got := p.cyclon.View().SampleInto(p.rng, k, p.targets[:0])
	if len(got) == 0 {
		return nil
	}
	p.targets = got
	out := p.sample[:0]
	for _, q := range got {
		out = append(out, int(q))
	}
	p.sample = out
	return out
}

// sendJoin announces this peer to its join seed (real, charged
// infrastructure traffic — a joiner pays for its own introduction).
func (p *peer) sendJoin() {
	p.sendMembership(wire.KindJoin, p.joinSeed, nil)
}

// sendLeave notifies every view neighbour of this peer's departure,
// handing each up to ShuffleLen of the freshest view entries (excluding
// the neighbour's own address) as replacement contacts — the overlay
// loses an address but keeps its degree. Every notification is charged
// like any other membership traffic; sends to already-dead neighbours
// land in the counted drop buckets as usual.
func (p *peer) sendLeave() {
	ents := p.cyclon.View().Entries()
	sort.SliceStable(ents, func(i, j int) bool { return ents[i].Age < ents[j].Age })
	k := p.cyclon.ShuffleLen()
	hand := make([]membership.Entry, 0, k)
	for _, to := range ents {
		hand = hand[:0]
		for _, e := range ents {
			if len(hand) == k {
				break
			}
			if e.ID != to.ID {
				hand = append(hand, e)
			}
		}
		p.sendMembership(wire.KindLeave, int(to.ID), hand)
	}
}

// sendMembership encodes and sends one membership envelope. The buffer
// is fresh per send — the receiver owns it asynchronously — while the
// entry conversion runs over reused scratch.
func (p *peer) sendMembership(kind byte, to int, entries []membership.Entry) {
	p.entOut = p.entOut[:0]
	for _, e := range entries {
		age := e.Age
		if age > math.MaxUint16 {
			age = math.MaxUint16
		}
		if e.ID < 0 {
			continue
		}
		p.entOut = append(p.entOut, wire.ViewEntry{ID: uint32(e.ID), Age: uint16(age)})
	}
	buf, err := wire.AppendMembership(make([]byte, 0, wire.MembershipSize(len(p.entOut))), kind, uint32(p.id), p.entOut)
	if err != nil {
		return
	}
	p.send(to, buf, fairness.ClassInfra)
}

// send transmits an encoded envelope. The sender pays for the attempt
// whether or not the network delivers it — the same accounting simnet
// applies to lossy links. The charge is the encoded size: ledger bytes
// and wire bytes are one number, for gossip and membership traffic
// alike.
func (p *peer) send(to int, buf []byte, class fairness.Class) {
	p.c.ledger.AddSend(p.id, class, len(buf))
	p.c.traffic.sent.Add(1)
	if q := p.c.peerAt(to); q != nil && p.c.faults.dropLink(p, q, p.rng) {
		p.c.traffic.faultDrops.Add(1)
		return
	}
	// An address outside the table (a stale or hostile view entry) falls
	// through to the transport, which refuses it — a counted drop.
	if err := p.tr.Send(to, buf); err != nil {
		p.c.traffic.transportDrops.Add(1)
	}
}

func (p *peer) receive(buf []byte) {
	if p.down.Load() {
		return // crashed: anything already queued in the inbox is lost
	}
	if err := wire.DecodeEnvelope(buf, &p.env); err != nil {
		p.c.traffic.malformed.Add(1)
		return
	}
	from := int(p.env.Sender)
	// The ledger is grown before a joiner's endpoint can emit traffic,
	// so its length bounds every well-formed sender id.
	if from < 0 || from >= p.c.ledger.Len() || from == p.id {
		p.c.traffic.malformed.Add(1)
		return
	}
	// Any valid envelope is proof of life for its sender — the failure
	// detector never holds evidence against a peer it can hear.
	p.noteAlive(simnet.NodeID(from))
	switch p.env.Kind {
	case wire.KindEvents:
		p.receiveEvents(from)
	case wire.KindShuffleOffer:
		reply := p.cyclon.HandleShuffle(p.rng, simnet.NodeID(from), p.entriesIn())
		p.sendMembership(wire.KindShuffleReply, from, reply)
	case wire.KindShuffleReply:
		p.cyclon.HandleReply(simnet.NodeID(from), p.entriesIn())
	case wire.KindJoin:
		p.handleJoin(from)
	case wire.KindLeave:
		p.handleLeave(from)
	}
}

// receiveEvents dedups before it decodes: push gossip delivers most
// events many times over, so only a record whose id is new is
// materialised into an event (one this peer owns outright); a duplicate
// costs a seen-set probe and a count towards retiring this peer's own
// copy (gossip.Buffer.Duplicate), nothing else. The envelope was validated
// whole before this runs, and len(rec.Raw) is the event's WireSize, so
// the novelty audit is charged exactly what an eager decode would
// charge.
func (p *peer) receiveEvents(from int) {
	novel, dup := 0, 0
	for _, rec := range p.env.Records {
		if !p.seen.Add(rec.ID) {
			dup += len(rec.Raw)
			p.buffer.Duplicate(rec.ID, p.batch)
			continue
		}
		ev, err := rec.Decode()
		if err != nil {
			// The scan accepted these bytes with the same walker, so the
			// shared read-only buffer changed under us — a contract breach
			// elsewhere, counted rather than acted on.
			p.c.traffic.malformed.Add(1)
			continue
		}
		novel += len(rec.Raw)
		p.buffer.Insert(ev)
		p.deliverIfInterested(ev)
	}
	p.c.ledger.AddAudit(from, novel, dup)
}

// entriesIn converts the decoded envelope's entries into membership
// entries over reused scratch, refusing quarantined addresses — the
// half of eviction that keeps third-party gossip from recirculating a
// dead peer back into the view it was just probed out of.
func (p *peer) entriesIn() []membership.Entry {
	p.entIn = p.entIn[:0]
	for _, e := range p.env.Entries {
		id := simnet.NodeID(e.ID)
		if p.det.buried(id, p.rounds) {
			continue
		}
		p.entIn = append(p.entIn, membership.Entry{ID: id, Age: int(e.Age)})
	}
	return p.entIn
}

// handleLeave processes a graceful departure: forget the leaver, refuse
// its address from future offers, and adopt the replacement contacts it
// handed over (already filtered through the quarantine — including the
// fresh verdict against the leaver itself).
func (p *peer) handleLeave(from int) {
	id := simnet.NodeID(from)
	v := p.cyclon.View()
	v.Remove(id)
	p.det.bury(id, p.rounds)
	if p.probe == id {
		p.probe = simnet.None
	}
	for _, e := range p.entriesIn() {
		v.AddAged(e)
	}
}

// handleJoin admits a joining peer: merge whatever view it announced,
// remember its address, and bootstrap it with a sample of our own view
// sent back as a shuffle reply (the joiner merges it conservatively,
// learning our address too).
func (p *peer) handleJoin(from int) {
	v := p.cyclon.View()
	for _, e := range p.entriesIn() {
		v.AddAged(e)
	}
	v.Add(simnet.NodeID(from))
	ents := v.Entries()
	p.rng.Shuffle(len(ents), func(i, j int) { ents[i], ents[j] = ents[j], ents[i] })
	k := p.cyclon.ShuffleLen()
	if k > len(ents) {
		k = len(ents)
	}
	boot := ents[:0]
	for _, e := range ents {
		if len(boot) == k {
			break
		}
		if int(e.ID) == from {
			continue // the joiner does not need its own address back
		}
		boot = append(boot, e)
	}
	p.sendMembership(wire.KindShuffleReply, from, boot)
}

func (p *peer) deliverIfInterested(ev *pubsub.Event) {
	if !p.in.Match(ev) {
		return
	}
	p.c.ledger.AddDelivery(p.id)
	if p.deliver != nil {
		p.deliver(ev)
	}
}
