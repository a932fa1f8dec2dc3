// Package live is the real-concurrency runtime: one goroutine per peer,
// a pluggable transport as the links, and wall-clock tickers for gossip
// rounds — the form a deployed system (and the runnable examples) would
// use. The protocol is not written here: every peer is a protocol.Peer,
// the state machine internal/core runs under the deterministic simulator,
// and this package is its second driver — the goroutine, inbox, wire
// codec and fault switches around it.
//
// Messages move as encoded bytes: each round a peer packs its selected
// events into one wire envelope (internal/wire) in its reused scratch and
// hands the bytes to its transport endpoint (internal/transport), which
// keeps nothing past Send; receivers validate the envelope, dedup on the
// event ids, decode — into events they own outright — only what they have
// not seen, then release the lent buffer. A peer carves the events it
// decodes from slabs of its wire.Decoder, so a delivered event that
// outlives the peer's use of it keeps its slab reachable: at most eight
// events' structs and payload bytes. The default ChanTransport
// delivers the bytes in-process; Config.Transport swaps in real loopback
// UDP sockets (transport.UDP()) with no protocol change. A send is
// charged the length of its encoding — the wire.Msg.Size the simulator
// charges for the same message — so the contribution a peer is billed is
// literally the number of bytes put on the wire.
//
// Membership is a partial view, not a roster: nothing on the gossip path
// reads a full membership list, which is what lets clusters grow while
// running (Join). Hostile or stale view entries (a crashed peer, a
// garbage id off the wire) are self-healing: they age, become shuffle
// targets, draw no reply, and are culled — every send they attract lands
// in a counted drop bucket.
//
// Concurrency model: each peer's protocol state is owned by its single
// goroutine. External calls (Subscribe, Publish) are funneled into the
// peer loop through a command channel and executed there, so no protocol
// state needs locks. The peer table lives behind an atomic pointer and
// grows copy-on-write (peers never move), so Join does not block running
// peers. The shared fairness.Ledger is internally synchronised. A peer
// whose inbox overflows drops messages, exactly as a saturated UDP socket
// does — except that every such drop is counted (see Traffic).
package live

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"fairgossip/internal/adaptive"
	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/membership"
	"fairgossip/internal/protocol"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/randutil"
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
	// (default 2) — which double as the failure detector's probes, so
	// detection costs no extra message or byte.
	ViewCap      int
	ShuffleEvery int
	// Seed drives per-peer randomness: peer i's protocol stream starts at
	// randutil.NodeSeed(Seed, i), its driver's at a split of that seed.
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
// injected fault. Loss draws come from the sender's driver stream: they
// stay per-goroutine and never move a protocol draw.
func (f *faults) dropLink(from, to *peer) bool {
	if to.down.Load() {
		return true
	}
	if f.split.Load() && from.group.Load() != to.group.Load() {
		return true
	}
	if p := math.Float64frombits(f.loss.Load()); p > 0 && from.rng.Float64() < p {
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
	// Malformed counts received envelopes that failed to decode, carried
	// an invalid sender or a kind only the simulator runs (a subset of
	// Recv, not of Dropped).
	Malformed uint64
	// JoinGiveUps counts joiners that abandoned the handshake after
	// protocol.JoinAttempts announcements (not part of Dropped: nothing
	// was sent, which is the point of giving up).
	JoinGiveUps uint64
}

// Cluster is a set of live peers. Create with NewCluster, then Start;
// Join grows a running cluster; Stop blocks until every peer goroutine
// has exited.
type Cluster struct {
	cfg     Config
	par     protocol.Params // what cfg comes to for a protocol.Peer; every peer points at it
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

// peer is the live driver of one protocol.Peer: the goroutine, inbox and
// transport endpoint around it, the wire codec in both directions, and
// the fault switches scenario drivers flip from outside.
type peer struct {
	id    int
	c     *Cluster
	tr    transport.Transport
	inbox chan []byte
	cmds  chan func()

	// m is the protocol state and out where it leaves what to send; rng is
	// the driver's stream (round phase, loss, rebind seeds), so a fault
	// never moves a protocol draw. The peer goroutine owns all three.
	m   protocol.Peer
	out protocol.Out
	rng randutil.Stream

	// joinFailed mirrors m.JoinFailed after every call that can move it,
	// for JoinErr to read from outside.
	joinFailed atomic.Bool

	// Per-peer fault state (atomic: scenario drivers flip it from
	// outside the peer goroutine). free is copied into the machine at
	// the top of each round.
	down  atomic.Bool
	free  atomic.Bool
	group atomic.Int32

	env  wire.Envelope // scan scratch: backing arrays are reused; Records alias the buffer in receive
	dec  wire.Decoder  // interned topics and the slabs decoded events are carved from
	wbuf []byte        // encode scratch for every envelope this peer sends
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
		par:    cfg.params(),
		ledger: fairness.NewLedger(cfg.N, fairness.DefaultWeights()),
		faults: &faults{},
		net:    nw,
		shaped: shaped,
		stop:   make(chan struct{}),
	}
	peers := make([]*peer, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		p := c.newPeer(i, cfg.N)
		tr, err := nw.Attach(i, p.ingress)
		if err != nil {
			_ = nw.Close()
			return nil, err
		}
		p.tr = tr
		peers = append(peers, p)
	}
	protocol.Bootstrap(cfg.N, cfg.ViewCap, cfg.Seed, func(i int) *membership.View { return peers[i].m.View() })
	c.peers.Store(&peers)
	return c, nil
}

// params translates the (defaulted) configuration into what a
// protocol.Peer reads: AIMD on both levers when TargetRatio is set, a
// Cyclon view, and none of the simulator's extensions (topic groups,
// semantic bias, push-pull), whose kinds a live peer counts malformed.
func (c Config) params() protocol.Params {
	par := protocol.Params{
		Fanout: c.Fanout, Batch: c.Batch, Policy: c.Policy,
		ViewCap: c.ViewCap, ShuffleEvery: c.ShuffleEvery,
		BufferCap: 256, BufferMaxAge: c.BufferMaxAge, SeenCap: 8192,
	}
	if c.TargetRatio > 0 {
		par.Controller = protocol.ControllerSpec{Kind: protocol.ControllerAIMD, Lever: adaptive.LeverBoth, TargetRatio: c.TargetRatio}
	}
	return par
}

// newPeer builds peer id of a population of n, both streams inside the
// one record (transport endpoint attached by the caller).
func (c *Cluster) newPeer(id, n int) *peer {
	p := &peer{
		id:    id,
		c:     c,
		inbox: make(chan []byte, c.cfg.InboxDepth),
		cmds:  make(chan func(), 64),
	}
	seed := randutil.NodeSeed(c.cfg.Seed, id)
	p.m.Init(simnet.NodeID(id), n, &c.par, seed, c.ledger)
	p.rng.Seed(randutil.ShardSeed(seed, 1))
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
	p := c.newPeer(id, id+1)
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
	// The joiner announces itself before its goroutine exists (nothing
	// else can touch it yet): the seed learns the new address at once and
	// replies with bootstrap entries. This is attempt #1 of the machine's
	// bounded, backed-off hand-shake.
	p.m.Join(simnet.NodeID(seed), &p.out)
	p.flush()
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

// RunRounds lets k round periods of wall time pass, the live
// counterpart of core.Cluster.RunRounds: the peers run their own
// rounds meanwhile.
func (c *Cluster) RunRounds(k int) {
	time.Sleep(time.Duration(k) * c.cfg.RoundPeriod)
}

// settleQuiet is how many consecutive round periods the ledger's
// delivery total must hold still before Settle returns.
const settleQuiet = 10

// Settle runs k more rounds, then waits until the ledger's delivery
// total has not moved for settleQuiet round periods. The wait goes
// through Eventually, so its ~10s bound is race-scaled like every
// other live deadline, and a wedged cluster returns unsettled instead
// of hanging its caller.
func (c *Cluster) Settle(k int) {
	c.RunRounds(k)
	delivered := func() (n uint64) {
		for i := 0; i < c.ledger.Len(); i++ {
			n += c.ledger.Account(i).Delivered
		}
		return n
	}
	last, quiet := delivered(), 0
	Eventually(10*time.Second, c.cfg.RoundPeriod, func() bool {
		if cur := delivered(); cur != last {
			last, quiet = cur, 0
			return false
		}
		// Eventually checks once before its first sleep, so settleQuiet+1
		// quiet checks span settleQuiet full periods.
		quiet++
		return quiet > settleQuiet
	})
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
		sub = p.m.Subscribe(f, &p.out)
		p.flush()
	})
	return sub, ok
}

// Unsubscribe removes a subscription from a peer.
func (c *Cluster) Unsubscribe(id int, sub pubsub.SubID) bool {
	removed := false
	ok := c.do(id, func() { removed = c.peerAt(id).m.Unsubscribe(sub) })
	return ok && removed
}

// OnDeliver installs a delivery observer on a peer (call before or after
// Start; it runs on the peer's goroutine). The delivered event is never
// shared with another peer's goroutine (each receiver decodes its own
// copy off the wire), but it IS the copy this peer keeps buffered for
// forwarding — treat it as read-only, or the peer forwards the
// mutation. An observer that retains the event keeps its decode slab
// reachable with it: at most eight events' structs and payload bytes.
func (c *Cluster) OnDeliver(id int, fn func(*pubsub.Event)) bool {
	return c.do(id, func() { c.peerAt(id).m.OnDeliver = fn })
}

// Levers reports a peer's current fanout and batch levers (synchronised
// through the peer's own goroutine).
func (c *Cluster) Levers(id int) (fanout, batch int, ok bool) {
	ok = c.do(id, func() {
		p := c.peerAt(id)
		fanout, batch = p.m.Fanout(), p.m.Batch()
	})
	return fanout, batch, ok
}

// View returns a snapshot of a peer's current partial view
// (synchronised through the peer's own goroutine), or nil for invalid
// ids.
func (c *Cluster) View(id int) []int {
	var out []int
	c.do(id, func() { out = c.peerAt(id).view() })
	return out
}

func (p *peer) view() []int {
	ids := p.m.View().IDs()
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
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
		} else {
			out[i] = p.view()
		}
	}
	return out
}

// ErrJoinAbandoned is JoinErr's verdict for a joiner that exhausted its
// announcement budget without ever building a view.
var ErrJoinAbandoned = errors.New("live: join handshake abandoned after bounded retries")

// JoinErr reports the join handshake's outcome for a peer: nil while
// the handshake is pending or succeeded, ErrJoinAbandoned once the
// peer has given up (protocol.JoinAttempts announcements, capped
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
// (protocol.Peer.Leave; real, ledger-charged infrastructure traffic —
// sends to already-dead neighbours land in the counted drop buckets as
// usual), then goes silent exactly like a crashed peer. Compare Crash, the departure without
// notice. Returns false for invalid ids or a stopped cluster.
func (c *Cluster) Leave(id int) bool {
	return c.do(id, func() {
		p := c.peerAt(id)
		if p.down.Load() {
			return // already offline: nothing to announce
		}
		p.m.Leave(&p.out)
		p.flush()
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
		seed := simnet.None // an isolated peer re-announces to its old seed
		if ids := p.m.View().IDs(); len(ids) > 0 {
			seed = ids[p.rng.Intn(len(ids))]
		}
		p.m.Join(seed, &p.out)
		p.flush()
	})
}

// Publish originates an event at the given peer.
func (c *Cluster) Publish(id int, topic string, attrs []pubsub.Attr, payload []byte) bool {
	return c.do(id, func() {
		p := c.peerAt(id)
		p.m.Publish(topic, attrs, payload, &p.out)
		p.flush()
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
		p.c.net.Release(buf)
	}
}

func (p *peer) loop() {
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
			p.c.net.Release(buf) // decoded events own their memory: nothing aliases buf now
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

// round runs one timer expiry: the machine decides, this sends.
// TestLiveRoundPathAllocs pins a steady round, with or without a
// shuffle, at zero allocations.
func (p *peer) round() {
	if p.down.Load() {
		return // crashed: no protocol activity at all
	}
	p.m.FreeRide = p.free.Load()
	p.m.Tick(&p.out)
	p.flush()
	p.m.Adapt() // after the sends: the window reads what they were charged
}

// flush sends what the machine's last input left in out — real, charged
// traffic; a joiner pays for its own introduction — each message encoded
// once into the peer's scratch and the same bytes sent to every target,
// then mirrors the join hand-shake's verdict where JoinErr and Traffic can
// see it.
func (p *peer) flush() {
	for i := range p.out.Msgs {
		o := &p.out.Msgs[i]
		buf, err := wire.Append(p.wbuf[:0], uint32(p.id), &o.Msg)
		if err != nil {
			// An unencodable message (a topic beyond the u16 framing, say)
			// cannot be sent; skip it without charging anyone.
			continue
		}
		p.wbuf = buf
		for _, q := range o.To {
			p.send(int(q), buf, o.Class)
		}
	}
	if failed := p.m.JoinFailed(); failed != p.joinFailed.Load() {
		p.joinFailed.Store(failed)
		if failed {
			p.c.traffic.joinGiveUps.Add(1)
		}
	}
}

// send transmits an encoded envelope. The sender pays for the attempt
// whether or not the network delivers it — the same accounting simnet
// applies to lossy links. The charge is the encoded size: ledger bytes
// and wire bytes are one number, for gossip and membership traffic
// alike.
func (p *peer) send(to int, buf []byte, class fairness.Class) {
	p.c.ledger.AddSend(p.id, class, len(buf))
	p.c.traffic.sent.Add(1)
	if q := p.c.peerAt(to); q != nil && p.c.faults.dropLink(p, q) {
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
	// The envelope was validated whole before this runs, and len(rec.Raw)
	// is an event's WireSize, so the novelty audit is charged exactly what
	// an eager decode would charge. A kind only the simulator runs is
	// well-formed, but nothing a live peer acts on, so it is counted with
	// what it cannot use.
	in := protocol.In{Kind: p.env.Kind, Entries: p.env.Entries, Parts: &p.env.Parts, Events: scanned{p}}
	novel, junk, ok := p.m.Recv(simnet.NodeID(from), in, &p.out)
	if !ok {
		p.c.traffic.malformed.Add(1)
		return
	}
	if novel+junk > 0 {
		p.c.ledger.AddAudit(from, novel, junk)
	}
	p.flush()
}

// scanned is the peer's validated envelope as the machine's
// protocol.Batch: the machine dedups on the record ids and only a record
// whose id is new is materialised into an event (one this peer owns
// outright, carved from the peer's decoder).
type scanned struct{ *peer }

func (p scanned) Len() int { return len(p.env.Records) }

func (p scanned) Head(i int) (pubsub.EventID, int) {
	rec := &p.env.Records[i]
	return rec.ID, len(rec.Raw)
}

func (p scanned) Event(i int) *pubsub.Event {
	ev, err := p.env.Records[i].Decode(&p.dec)
	if err != nil {
		// The scan accepted these bytes with the same walker, so the
		// lent buffer changed under us — a contract breach elsewhere,
		// counted rather than acted on.
		p.c.traffic.malformed.Add(1)
		return nil
	}
	return ev
}
