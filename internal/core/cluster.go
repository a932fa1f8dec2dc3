package core

import (
	"math/rand"
	"time"

	"fairgossip/internal/eventsim"
	"fairgossip/internal/fairness"
	"fairgossip/internal/simnet"
)

// Cluster wires n FairGossip nodes onto one simulated network with a
// shared fairness ledger. It is the unit experiments (and the public
// facade) drive.
type Cluster struct {
	Sim    *eventsim.Sim
	Net    *simnet.Network
	Ledger *fairness.Ledger
	Nodes  []*Node

	cfg     Config
	seed    int64
	tickers []*eventsim.Ticker
	pool    *msgPool
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

// NewCluster builds a stopped cluster of n nodes. Call Start (or use
// RunRounds, which starts lazily) to begin gossip rounds.
func NewCluster(n int, cfg Config, opts ClusterOptions) *Cluster {
	cfg = cfg.withDefaults()
	sim := eventsim.New(opts.Seed)
	net := simnet.New(sim, opts.NetConfig)
	ledger := fairness.NewLedger(n, opts.Weights)

	c := &Cluster{
		Sim:    sim,
		Net:    net,
		Ledger: ledger,
		cfg:    cfg,
		seed:   opts.Seed,
		Nodes:  make([]*Node, 0, n),
		// One envelope pool per cluster: pooling is output-invariant
		// (SelectInto draws the same random stream as Select and the
		// copied batch is byte-equal), so it is always on.
		pool: &msgPool{},
	}
	for i := 0; i < n; i++ {
		nd := newNode(simnet.NodeID(i), net, ledger, cfg, n, rand.New(rand.NewSource(opts.Seed^int64(0x9e3779b9*uint32(i+1)))), c.pool)
		net.AddNode(nd)
		c.Nodes = append(c.Nodes, nd)
	}
	bootstrapViews(c.Nodes, cfg, opts.Seed)
	return c
}

// bootstrapViews seeds every node's Cyclon view with random contacts (a
// join service in a deployed system; free here, like handing out a
// seed-peer list). One rng walks the nodes in global id order, so the
// initial overlay is the same whatever the shard count.
func bootstrapViews(nodes []*Node, cfg Config, seed int64) {
	if cfg.Membership != MemberCyclon {
		return
	}
	n := len(nodes)
	k := max(cfg.ViewCap/2, 3)
	boot := rand.New(rand.NewSource(seed + 7))
	for _, nd := range nodes {
		ids := make([]simnet.NodeID, 0, k)
		for len(ids) < k && n > 1 {
			cand := simnet.NodeID(boot.Intn(n))
			if cand != nd.id {
				ids = append(ids, cand)
			}
		}
		nd.bootstrapView(ids)
	}
}

// Config returns the cluster's (defaulted) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Start launches the round tickers — per-node jittered ones by default,
// or a single batched ticker under Config.BatchRounds. Idempotent.
func (c *Cluster) Start() {
	if len(c.tickers) > 0 {
		return
	}
	if c.cfg.BatchRounds {
		// One ticker drives every node in id order; ranging over c.Nodes
		// through the receiver picks up mid-run joiners automatically.
		c.tickers = append(c.tickers, c.Sim.Every(c.cfg.RoundPeriod, c.cfg.Jitter, func() {
			for _, nd := range c.Nodes {
				nd.Round()
			}
		}))
		return
	}
	for _, nd := range c.Nodes {
		nd := nd
		c.tickers = append(c.tickers, c.Sim.Every(c.cfg.RoundPeriod, c.cfg.Jitter, nd.Round))
	}
}

// Stop halts the round tickers (the simulator can still drain in-flight
// messages with Sim.Run).
func (c *Cluster) Stop() {
	for _, t := range c.tickers {
		t.Stop()
	}
	c.tickers = nil
}

// Join boots a new node into the cluster mid-run, bootstrapped through
// seed. Under MemberCyclon the joiner starts with only the seed in its
// view and pays for a charged view-repair exchange (the same
// introduction a rejoining node buys); under MemberFull the idealised
// directory tells every node the new population size for free, the
// same way the initial roster was free. The joiner's round ticker
// starts immediately when the cluster is running. Returns the new
// node's id.
func (c *Cluster) Join(seed simnet.NodeID) simnet.NodeID {
	n := len(c.Nodes) + 1
	c.Ledger.Grow(n)
	id := simnet.NodeID(len(c.Nodes))
	nd := newNode(id, c.Net, c.Ledger, c.cfg, n, rand.New(rand.NewSource(c.seed^int64(0x9e3779b9*uint32(id+1)))), c.pool)
	c.Net.AddNode(nd)
	c.Nodes = append(c.Nodes, nd)
	if c.cfg.Membership == MemberCyclon {
		if seed >= 0 && int(seed) < len(c.Nodes)-1 {
			nd.cyclon.View().Add(seed)
			nd.send(seed, &wireMsg{Kind: kindViewRepair}, fairness.ClassInfra)
		}
	} else {
		for _, other := range c.Nodes {
			other.SetPopulation(n)
		}
	}
	if len(c.tickers) > 0 && !c.cfg.BatchRounds {
		// The batched ticker ranges over c.Nodes and already covers the
		// joiner; only the per-node schedule needs a new ticker.
		c.tickers = append(c.tickers, c.Sim.Every(c.cfg.RoundPeriod, c.cfg.Jitter, nd.Round))
	}
	return id
}

// Leave departs node id gracefully (Node.LeaveGracefully): under Cyclon
// membership the leaver hands its freshest view entries to its
// neighbours before going offline; under the idealised full sampler it
// simply goes offline. The sim mirror of live.Cluster.Leave.
func (c *Cluster) Leave(id simnet.NodeID) {
	if id < 0 || int(id) >= len(c.Nodes) {
		return
	}
	c.Nodes[id].LeaveGracefully()
}

// RunRounds advances virtual time by r round periods, starting the
// cluster if needed.
func (c *Cluster) RunRounds(r int) {
	c.Start()
	c.Sim.RunUntil(c.Sim.Now() + time.Duration(r)*c.cfg.RoundPeriod)
}

// Node returns the i-th node.
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

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
