package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fairgossip/internal/eventsim"
	"fairgossip/internal/fairness"
	"fairgossip/internal/membership"
	"fairgossip/internal/protocol"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/randutil"
	"fairgossip/internal/simnet"
	"fairgossip/internal/transport"
)

// Cluster wires n FairGossip nodes onto a simulated network with a
// shared fairness ledger, partitioned across one or more shards (see
// shard.go for the window/barrier mechanics). It is the unit
// experiments, the scenario engine and the public facade drive.
//
// Determinism contract: a run is byte-identical per (seed, shardCount).
// Different shard counts are different (equally valid) executions —
// cross-shard messages are quantised to the next barrier, so the event
// interleaving legitimately depends on the partition. One shard is the
// plain single-threaded discrete-event run: shard 0's kernel is seeded
// with the cluster seed itself (randutil.ShardSeed(seed, 0) is the
// identity), nothing is remote, and no goroutine is started.
//
// Its per-peer and fault calls (Subscribe, Unsubscribe, Publish,
// OnDeliver, Crash, Rejoin, SetFreeRider, Leave, Join, Partition, Heal,
// SetShape, Views, Settle) are live.Cluster's, with the same
// signatures and the same refusal of an id out of range, so one fault
// schedule drives either driver. All of them, and Node's methods, must
// be called from the goroutine that calls RunRounds, between calls.
type Cluster struct {
	// Sim and Net are the sole shard's kernel and network when
	// Shards() == 1, and nil otherwise: code that reaches through them
	// fails loudly on a sharded cluster instead of silently seeing
	// shard 0. The cluster's own methods (TotalTraffic, Partition,
	// SetShape, ...) work at every shard count.
	Sim    *eventsim.Sim
	Net    *simnet.Network
	Ledger *fairness.Ledger
	Nodes  []*Node

	shards []*shard
	cfg    Config
	par    protocol.Params // what cfg comes to for a protocol.Peer; every node points at it
	seed   int64
	per    int // ids per shard (shard i owns [i*per, min((i+1)*per, n)))
	// barrier is onShards's and deadline runWindow's; fields rather than
	// locals so that a window allocates nothing (a captured local escapes).
	barrier  sync.WaitGroup
	deadline time.Duration
	latency  simnet.LatencyModel // the configured delay model, which SetShape adds its hold to
}

// ClusterOptions bundles the environment knobs of a cluster.
type ClusterOptions struct {
	// Seed drives all randomness (simulator and per-node streams).
	Seed int64
	// NetConfig configures latency and loss (zero value: 1ms, lossless).
	NetConfig simnet.Config
	// Weights configures the fairness ledger (zero value: defaults).
	Weights fairness.Weights
}

// NewCluster builds a stopped one-shard cluster of n nodes. Call Start
// (or use RunRounds, which starts lazily) to begin gossip rounds.
func NewCluster(n int, cfg Config, opts ClusterOptions) *Cluster {
	return NewShardedCluster(n, 1, cfg, opts)
}

// NewShardedCluster builds a stopped cluster of n nodes split across
// the given number of shards (clamped to [1, n]). Node RNG streams use
// the same (seed, id) derivation at every shard count, and no build order
// matters: the shards build their nodes concurrently (fill).
func NewShardedCluster(n, shards int, cfg Config, opts ClusterOptions) *Cluster {
	shards = max(1, min(shards, n))
	cfg = cfg.withDefaults()
	if opts.NetConfig.Latency == nil {
		opts.NetConfig.Latency = simnet.ConstantLatency(time.Millisecond)
	}
	c := &Cluster{
		Ledger:  fairness.NewLedger(n, opts.Weights),
		Nodes:   make([]*Node, n),
		shards:  make([]*shard, shards),
		cfg:     cfg,
		par:     cfg.params(),
		seed:    opts.Seed,
		per:     shardSpan(n, shards),
		latency: opts.NetConfig.Latency,
	}
	for s := range c.shards {
		sim := eventsim.New(randutil.ShardSeed(opts.Seed, s))
		sh := &shard{
			sim:    sim,
			net:    simnet.New(sim, opts.NetConfig),
			ledger: c.Ledger,
			// One envelope pool per shard: pooling is output-invariant
			// (SelectInto draws the same random stream as Select and the
			// copied batch is byte-equal), so it is always on.
			pool:   &msgPool{},
			lo:     s * c.per,
			hi:     min((s+1)*c.per, n),
			outbox: make([]eventsim.Blocks[pendingMsg], shards),
		}
		sh.net.SetRemote(c.remoteHook(sh))
		sh.auditSink = c.auditSink(sh)
		c.shards[s] = sh
	}
	if shards == 1 {
		c.Sim, c.Net = c.shards[0].sim, c.shards[0].net
	}
	c.onShards((*Cluster).fill)
	if cfg.Membership == MemberCyclon {
		protocol.Bootstrap(n, cfg.ViewCap, opts.Seed, func(i int) *membership.View { return c.Nodes[i].View() })
	}
	return c
}

// Config returns the cluster's (defaulted) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// N returns the current population size.
func (c *Cluster) N() int { return len(c.Nodes) }

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Node returns the i-th node.
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

// node returns node id, or nil when id is out of range.
func (c *Cluster) node(id int) *Node {
	if id < 0 || id >= len(c.Nodes) {
		return nil
	}
	return c.Nodes[id]
}

// do runs fn on node id and reports whether id is in range.
func (c *Cluster) do(id int, fn func(*Node)) bool {
	nd := c.node(id)
	if nd != nil {
		fn(nd)
	}
	return nd != nil
}

// Start launches the round tickers on every shard — per-node jittered
// ones by default, or one batched ticker per shard under
// Config.BatchRounds. Idempotent.
func (c *Cluster) Start() {
	for _, sh := range c.shards {
		if len(sh.tickers) > 0 {
			continue
		}
		if c.cfg.BatchRounds {
			// One ticker drives the shard's nodes in id order; re-slicing
			// on every fire picks up mid-run joiners (Join extends the
			// tail shard's hi).
			sh.tickers = append(sh.tickers, sh.sim.Every(c.cfg.RoundPeriod, c.cfg.jitter(), func() {
				for _, nd := range c.Nodes[sh.lo:sh.hi] {
					nd.Round()
				}
			}))
			continue
		}
		for _, nd := range c.Nodes[sh.lo:sh.hi] {
			sh.tickers = append(sh.tickers, sh.sim.Every(c.cfg.RoundPeriod, c.cfg.jitter(), nd.Round))
		}
	}
}

// Stop halts the round tickers. Each leaves its one queued tick in its
// kernel, where it fires as a no-op; in-flight messages and those ticks
// are settled with Drain.
func (c *Cluster) Stop() {
	for _, sh := range c.shards {
		for _, t := range sh.tickers {
			t.Stop()
		}
		sh.tickers = nil
	}
}

// RunRounds advances virtual time by r round periods, starting the
// cluster if needed. Each round is one barrier window.
func (c *Cluster) RunRounds(r int) {
	c.Start()
	for i := 0; i < r; i++ {
		c.runWindow(c.now() + c.cfg.RoundPeriod)
	}
}

// now is the shared virtual clock: every window leaves every kernel at
// the same deadline, so any shard's clock is the cluster's.
func (c *Cluster) now() time.Duration { return c.shards[0].sim.Now() }

// Join boots a new node into the cluster mid-run and returns its id. The
// joiner starts with only seed in its view and announces itself in a
// charged wire.KindJoin message (protocol.Peer.Join — what a rejoining node
// and live.Cluster.Join do too). The idealised full sampler draws from a
// fixed population, so only a MemberCyclon cluster grows. The id extends
// the tail shard's range, so existing ranges never move, and the joiner's
// round ticker starts at once when the cluster is running.
func (c *Cluster) Join(seed int) (int, error) {
	id := len(c.Nodes)
	if c.cfg.Membership != MemberCyclon {
		return 0, errors.New("core: Join needs partial views (MemberCyclon); the full sampler's population is fixed")
	}
	if seed < 0 || seed >= id {
		return 0, fmt.Errorf("core: seed node %d out of range [0,%d)", seed, id)
	}
	n := id + 1
	c.Ledger.Grow(n)
	for _, other := range c.shards[:len(c.shards)-1] {
		other.net.AddRemote()
	}
	sh := c.shards[len(c.shards)-1]
	nd := c.initNode(new(Node), sh, id, n)
	c.Nodes = append(c.Nodes, nd)
	sh.hi = n
	nd.Join(simnet.NodeID(seed), &sh.out)
	nd.flush()
	if len(sh.tickers) > 0 && !c.cfg.BatchRounds {
		// The batched ticker re-slices c.Nodes and already covers the
		// joiner; only the per-node schedule needs a new ticker.
		sh.tickers = append(sh.tickers, sh.sim.Every(c.cfg.RoundPeriod, c.cfg.jitter(), nd.Round))
	}
	return id, nil
}

// Leave departs node id gracefully — the sim mirror of
// live.Cluster.Leave. Under Cyclon membership the leaver hands up to
// ShuffleLen of its freshest view entries to every view neighbour in a
// charged wire.KindLeave message before going offline (protocol.Peer.Leave),
// so the overlay loses an address without losing degree; under the
// idealised full sampler it simply goes offline. A node already down
// announces nothing. It returns false for an id out of range.
func (c *Cluster) Leave(id int) bool {
	return c.do(id, func(nd *Node) {
		if nd.Active() {
			nd.Peer.Leave(&nd.sh.out)
			nd.flush()
			nd.sh.net.SetUp(nd.ID(), false)
		}
	})
}

// Crash takes node id offline without notice.
func (c *Cluster) Crash(id int) bool {
	return c.do(id, func(nd *Node) { nd.sh.net.SetUp(nd.ID(), false) })
}

// Rejoin brings a crashed node back and announces it, like any joiner,
// to the lowest-numbered other node that is up (protocol.Peer.Join:
// charged, retried under back-off, and walking again into the topic
// groups it lost). A node that is up is left alone, as on the live
// runtime. The §3.2 churn penalty is the caller's to charge: whoever
// schedules the churn knows what it costs.
func (c *Cluster) Rejoin(id int) bool {
	return c.do(id, func(nd *Node) {
		if nd.Active() {
			return
		}
		boot := 0
		for i := range c.Nodes {
			if i != id && c.Up(i) {
				boot = i
				break
			}
		}
		nd.sh.net.SetUp(nd.ID(), true)
		nd.Join(simnet.NodeID(boot), &nd.sh.out)
		nd.flush()
	})
}

// SetFreeRider makes node id stop forwarding while it still receives.
func (c *Cluster) SetFreeRider(id int, on bool) bool {
	return c.do(id, func(nd *Node) { nd.FreeRide = on })
}

// Subscribe registers a filter on node id (Node.Subscribe).
func (c *Cluster) Subscribe(id int, f pubsub.Filter) (sub pubsub.SubID, ok bool) {
	ok = c.do(id, func(nd *Node) { sub = nd.Subscribe(f) })
	return sub, ok
}

// Unsubscribe removes a subscription from node id.
func (c *Cluster) Unsubscribe(id int, sub pubsub.SubID) bool {
	nd := c.node(id)
	return nd != nil && nd.Unsubscribe(sub)
}

// Publish originates an event at node id (Node.Publish).
func (c *Cluster) Publish(id int, topic string, attrs []pubsub.Attr, payload []byte) bool {
	return c.do(id, func(nd *Node) { nd.Publish(topic, attrs, payload) })
}

// OnDeliver installs a delivery observer on node id.
func (c *Cluster) OnDeliver(id int, fn func(*pubsub.Event)) bool {
	return c.do(id, func(nd *Node) { nd.OnDeliver = fn })
}

// Views snapshots every node's partial view, indexed by node id (nil
// entries under the full sampler, which keeps none).
func (c *Cluster) Views() [][]int {
	views := make([][]int, len(c.Nodes))
	for i, nd := range c.Nodes {
		if v := nd.View(); v != nil {
			for _, id := range v.IDs() {
				views[i] = append(views[i], int(id))
			}
		}
	}
	return views
}

// Up reports whether node id is up (checked on its owner network).
func (c *Cluster) Up(id int) bool {
	return c.node(id) != nil && c.shards[c.shardOf(id)].net.Up(simnet.NodeID(id))
}

// Partition splits every shard's network identically: delivery-time
// checks run on the destination's owner network, which therefore needs
// the full partition map regardless of where the sender lives. Ids out
// of range are ignored; joiners land on the zero side.
func (c *Cluster) Partition(side []int) {
	ids := make([]simnet.NodeID, 0, len(side))
	for _, id := range side {
		if c.node(id) != nil {
			ids = append(ids, simnet.NodeID(id))
		}
	}
	for _, sh := range c.shards {
		sh.net.Partition(ids)
	}
}

// Heal removes any partition on every shard.
func (c *Cluster) Heal() {
	for _, sh := range c.shards {
		sh.net.Heal()
	}
}

// SetShape installs a shaping profile, the sim mirror of
// live.Cluster.SetShape and the cluster's one loss layer: every shard
// drops with probability p.Loss (clamped to [0,1]), replacing the
// NetConfig.Loss it was built with, and every message's delay is the
// configured latency model's plus the hold the live shaper would draw
// (transport.Profile.Hold), drawn from the sending shard's seeded stream.
func (c *Cluster) SetShape(p transport.Profile) {
	base := c.latency
	model := func(rng *rand.Rand, from, to simnet.NodeID) time.Duration {
		return base(rng, from, to) + p.Hold(rng)
	}
	for _, sh := range c.shards {
		sh.net.SetLoss(p.Loss)
		sh.net.SetLatency(model)
	}
}

// Settle runs the tail rounds, then stops the round tickers and drains,
// so no message is in flight when it returns.
func (c *Cluster) Settle(rounds int) {
	c.RunRounds(rounds)
	c.Stop()
	c.Drain()
}

// TotalTraffic sums the per-shard networks' counters. Each event is
// counted on exactly one network (sends and send-time drops on the
// source shard, receives and delivery-time drops on the destination
// shard), so the sum is the whole-population truth.
func (c *Cluster) TotalTraffic() simnet.Traffic {
	var t simnet.Traffic
	for _, sh := range c.shards {
		st := sh.net.TotalTraffic()
		t.MsgsSent += st.MsgsSent
		t.BytesSent += st.BytesSent
		t.MsgsRecv += st.MsgsRecv
		t.Dropped += st.Dropped
	}
	return t
}

// Report computes the fairness report over the whole population.
func (c *Cluster) Report() fairness.Report { return c.Ledger.Report() }

// DeliveredTotal sums deliveries across all nodes.
func (c *Cluster) DeliveredTotal() uint64 {
	var total uint64
	for i := range c.Nodes {
		total += c.Ledger.Account(i).Delivered
	}
	return total
}

// DeliveryRatio returns, for an event expected at `interested` many
// nodes, the fraction of them that delivered at least `minEach` events.
// Experiments use it as the reliability metric.
func (c *Cluster) DeliveryRatio(interested []int, minEach uint64) float64 {
	if len(interested) == 0 {
		return 1
	}
	ok := 0
	for _, id := range interested {
		if c.Ledger.Account(id).Delivered >= minEach {
			ok++
		}
	}
	return float64(ok) / float64(len(interested))
}
