package core

import (
	"time"

	"fairgossip/internal/eventsim"
	"fairgossip/internal/fairness"
	"fairgossip/internal/protocol"
	"fairgossip/internal/randutil"
	"fairgossip/internal/simnet"
)

// shard is one partition of a Cluster: a contiguous, chunk-aligned range
// of the node ids, its own eventsim kernel (independently seeded from
// (seed, shardID) via randutil.ShardSeed — shards never share a rand
// stream), a full-width simnet.Network whose remote slots are
// placeholders, its own envelope pool, and the window-local state the
// barrier drains.
//
// Shards advance in lockstep windows of one RoundPeriod: within a
// window every shard runs its kernel concurrently; at the window
// barrier the calling goroutine merges cross-shard mailboxes and
// deferred audits in fixed shard order, then opens the next window.
//
// Concurrency model: during a window each shard goroutine touches only
// its own kernel, network, nodes, outboxes and audit list, plus the
// shared ledger — where every write lands on the writing node's own
// account except the novelty audit, which auditSink defers when the
// audited sender lives on another shard (otherwise the sender's
// controller would race the write mid-window and runs would diverge).
// Between windows only the calling goroutine runs; the WaitGroup
// barrier orders everything a shard wrote before everything the caller
// (and the next window's goroutines) read.
type shard struct {
	sim       *eventsim.Sim
	net       *simnet.Network
	ledger    *fairness.Ledger // the cluster's
	pool      *msgPool
	out       protocol.Out                  // every Peer call of the shard's nodes writes here; read before the next call
	lo, hi    int                           // owned id range [lo, hi)
	outbox    []eventsim.Blocks[pendingMsg] // per destination shard, FIFO within a pair
	audits    eventsim.Blocks[deferredAudit]
	auditSink func(from, useful, junk int) // shared by the shard's nodes
	tickers   []*eventsim.Ticker
}

// pendingMsg is a cross-shard message parked in a mailbox until the
// barrier: the source shard already charged the send, drew loss and
// latency from its own stream, and retained a pooled payload; at is the
// nominal delivery instant on the shared virtual clock. InjectAt coerces
// instants inside the closed window up to the barrier.
type pendingMsg struct {
	msg eventsim.Msg
	at  time.Duration
}

// deferredAudit is a novelty audit whose target account lives on another
// shard; it is applied at the barrier in fixed shard order. The byte
// counts are one message's.
type deferredAudit struct {
	from, useful, junk int32
}

// shardSpan sizes the per-shard id range: an even split, with interior
// boundaries rounded up to the fairness ledger's chunk size when that
// still leaves every shard nonempty, so two shards' hot atomic writes
// never share a chunk.
func shardSpan(n, shards int) int {
	per := max(1, (n+shards-1)/shards)
	if aligned := (per + fairness.ChunkSize - 1) / fairness.ChunkSize * fairness.ChunkSize; aligned*(shards-1) < n {
		return aligned
	}
	return per
}

// shardOf maps a global id to its owner shard.
func (c *Cluster) shardOf(id int) int { return min(id/c.per, len(c.shards)-1) }

// fill builds the shard's nodes, ids [lo, hi), as one slab and registers
// the whole population on its network, in tables sized once: its own
// nodes as handlers, every other id as a remote placeholder. Shards fill
// concurrently: each writes only its own network, slab and c.Nodes range.
func (c *Cluster) fill(sh *shard) {
	n := len(c.Nodes)
	sh.net.Grow(n)
	for range sh.lo {
		sh.net.AddRemote()
	}
	slab := make([]Node, sh.hi-sh.lo)
	for i := range slab {
		c.Nodes[sh.lo+i] = c.initNode(&slab[i], sh, sh.lo+i, n)
	}
	for range n - sh.hi {
		sh.net.AddRemote()
	}
}

// initNode builds global node id of a population of n in place, on its
// owner shard sh, as the next id of sh's network, and returns it: the one
// construction path of founders (fill) and joiners (Join).
func (c *Cluster) initNode(nd *Node, sh *shard, id, n int) *Node {
	nd.Peer.Init(simnet.NodeID(id), n, &c.par, randutil.NodeSeed(c.seed, id), c.Ledger)
	nd.sh = sh
	sh.net.AddNode(nd)
	return nd
}

// remoteHook parks cross-shard sends in the source shard's outbox.
func (c *Cluster) remoteHook(sh *shard) simnet.RemoteFunc {
	return func(m eventsim.Msg, delay time.Duration) {
		d := c.shardOf(int(m.To))
		sh.outbox[d].Push(pendingMsg{msg: m, at: sh.sim.Now() + delay})
	}
}

// auditSink applies same-shard audits immediately and defers cross-shard
// ones to the barrier.
func (c *Cluster) auditSink(sh *shard) func(from, useful, junk int) {
	return func(from, useful, junk int) {
		if from >= sh.lo && from < sh.hi {
			c.Ledger.AddAudit(from, useful, junk)
			return
		}
		sh.audits.Push(deferredAudit{from: int32(from), useful: int32(useful), junk: int32(junk)})
	}
}

// onShards runs fn(c, sh) for every shard — shard 0 on the caller's
// goroutine, every further shard on one of its own, so a one-shard
// cluster starts none — and returns once all have. fn is a method
// expression, not a closure, so that a window allocates nothing.
func (c *Cluster) onShards(fn func(*Cluster, *shard)) {
	for _, sh := range c.shards[1:] {
		c.barrier.Add(1)
		go func() {
			defer c.barrier.Done()
			fn(c, sh)
		}()
	}
	fn(c, c.shards[0])
	c.barrier.Wait()
}

// runShard runs the shard's kernel to the window's deadline.
func (c *Cluster) runShard(sh *shard) { sh.sim.RunUntil(c.deadline) }

// runWindow runs every shard's kernel up to deadline (onShards), then
// merges mailboxes into destination kernels in fixed (destination,
// source) order and applies deferred audits in fixed shard order. Fixed
// merge order means fixed FIFO tie-break sequence numbers, which is what
// makes the whole execution a pure function of (seed, shardCount). A
// drained mailbox keeps its blocks for the next window but zeroes each
// entry it injects, so it pins no message (nor the events one carries)
// past its delivery.
func (c *Cluster) runWindow(deadline time.Duration) {
	c.deadline = deadline
	c.onShards((*Cluster).runShard)
	for d, dst := range c.shards {
		for _, src := range c.shards {
			box := &src.outbox[d]
			for i := range box.Len() {
				p := box.At(i)
				dst.net.InjectAt(p.at, p.msg)
				*p = pendingMsg{}
			}
			box.Reset()
		}
	}
	for _, sh := range c.shards {
		for i := range sh.audits.Len() {
			a := sh.audits.At(i)
			c.Ledger.AddAudit(int(a.from), int(a.useful), int(a.junk))
		}
		sh.audits.Reset()
	}
}

// Drain settles all in-flight traffic after Stop: windows keep running
// until every kernel is idle and every mailbox is empty, which includes
// the no-op tick each stopped ticker left queued (at most a round
// period and its jitter away). With tickers stopped each cross-shard hop costs at most
// one extra window, so this terminates.
func (c *Cluster) Drain() {
	for !c.idle() {
		c.runWindow(c.now() + c.cfg.RoundPeriod)
	}
}

func (c *Cluster) idle() bool {
	for _, sh := range c.shards {
		if sh.sim.Pending() > 0 {
			return false
		}
		for _, box := range sh.outbox {
			if box.Len() > 0 {
				return false
			}
		}
	}
	return true
}
