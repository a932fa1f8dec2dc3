// Package core implements FairGossip — the fairness-aware selective event
// dissemination protocol the paper sketches in §5. Every node runs, over
// one simulated network:
//
//   - push gossip dissemination (Fig. 4) with per-node fanout F_i and
//     gossip message size N_i,
//   - a membership substrate (Cyclon partial views or an idealised full
//     sampler), whose traffic is charged as infrastructure contribution,
//   - fairness accounting per Figs. 1–3 (contribution = bytes published +
//     forwarded, each message charged the length internal/wire encodes it
//     to, as on the live runtime; benefit = deliveries + κ·filters),
//   - optionally, a §5.2 controller that adapts F_i and/or N_i so the
//     node's contribution/benefit ratio converges to the global target f,
//   - in topic mode (§5.1), per-topic gossip groups joined through
//     random-walk subscriptions whose relay work is measured,
//   - a novelty audit (§5.2's bias question): receivers grade incoming
//     bytes as useful (novel events) or junk, so inflating one's byte
//     count with duplicates earns no audited credit.
package core

import (
	"time"

	"fairgossip/internal/adaptive"
	"fairgossip/internal/gossip"
	"fairgossip/internal/protocol"
)

// Mode selects the selectivity scheme of §5.
type Mode uint8

const (
	// ModeContent is expressive event selection (§5.2): one flat overlay,
	// every node forwards any event, interest gates only delivery.
	ModeContent Mode = iota + 1
	// ModeTopics is topic-based event selection (§5.1): one gossip group
	// per topic; only subscribers carry a topic's events.
	ModeTopics
)

// ControllerKind and ControllerSpec — how a node adapts its
// participation — are the shared machine's, re-exported.
type (
	ControllerKind = protocol.ControllerKind
	ControllerSpec = protocol.ControllerSpec
)

const (
	ControllerStatic       = protocol.ControllerStatic
	ControllerAIMD         = protocol.ControllerAIMD
	ControllerProportional = protocol.ControllerProportional
)

// Membership selects the peer-sampling substrate.
type Membership uint8

const (
	// MemberFull gives every node the idealised uniform sampler over the
	// whole population (free of charge — the analysis baseline).
	MemberFull Membership = iota + 1
	// MemberCyclon runs Cyclon view shuffling as real, charged
	// infrastructure traffic.
	MemberCyclon
)

// Config parameterises a FairGossip node/cluster.
type Config struct {
	Mode Mode

	// RoundPeriod is the gossip timer period T (default 100ms); a tenth
	// of it of per-tick jitter desynchronises the nodes.
	RoundPeriod time.Duration

	// Fanout and Batch are the initial (or static) F and N. Defaults 4/8.
	Fanout int
	Batch  int

	// Policy is the SELECTEVENTS policy (default random).
	Policy gossip.Policy

	// Controller selects static vs adaptive participation.
	Controller ControllerSpec
	// Limits bound the adaptive levers; zero value = adaptive.DefaultLimits(n).
	Limits adaptive.Limits

	// Membership substrate (default MemberCyclon), its view capacity
	// (default 16) and the rounds between a node's Cyclon shuffle
	// initiations (default 4) — which is also the failure detector's
	// probe cadence, so scenarios that must scrub views fast lower it.
	Membership   Membership
	ViewCap      int
	ShuffleEvery int
	BufferCap    int // event buffer capacity (default 256)
	BufferMaxAge int // rounds an event stays forwardable at most (default 8; gossip.Buffer.Duplicate retires it sooner)
	SeenCap      int // dedup memory (default 8192)
	AntiEntropy  int // rounds between push-pull digests (EXP-X1, protocol/pushpull.go; default 0: off)

	// SemanticBias ∈ (0,1] biases that fraction of content-mode gossip
	// partners toward peers with overlapping interest fingerprints
	// (§5.2's semantic-knowledge suggestion; EXP-X2). 0 disables.
	SemanticBias float64

	// BatchRounds replaces the per-node jittered round tickers with one
	// ticker per cluster (per shard, when sharded) that drives every
	// node's Round in id order. Large populations trade per-node timer
	// desynchronisation for far fewer kernel events — at N=100k the
	// per-node tickers alone are 100k heap entries rescheduled every
	// round. Off by default: the batched schedule is deterministic but
	// fires rounds at different instants than the jittered one, so
	// fixed-seed output differs from the legacy schedule.
	BatchRounds bool
}

// defaultBatch is Config.Batch's default, and the room for events a
// pooled envelope starts with (pool.go).
const defaultBatch = 8

func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = ModeContent
	}
	if c.RoundPeriod <= 0 {
		c.RoundPeriod = 100 * time.Millisecond
	}
	if c.Fanout <= 0 {
		c.Fanout = 4
	}
	if c.Batch <= 0 {
		c.Batch = defaultBatch
	}
	if c.Policy == 0 {
		c.Policy = gossip.PolicyRandom
	}
	if c.Membership == 0 {
		c.Membership = MemberCyclon
	}
	if c.ViewCap <= 0 {
		c.ViewCap = 16
	}
	if c.ShuffleEvery <= 0 {
		c.ShuffleEvery = 4
	}
	if c.BufferCap <= 0 {
		c.BufferCap = 256
	}
	if c.BufferMaxAge <= 0 {
		c.BufferMaxAge = 8
	}
	if c.SeenCap <= 0 {
		c.SeenCap = 8192
	}
	return c
}

// jitter is the width of the uniform delay added to every round tick.
func (c Config) jitter() time.Duration { return c.RoundPeriod / 10 }

// params translates the (defaulted) configuration into what a
// protocol.Peer reads.
func (c Config) params() protocol.Params {
	par := protocol.Params{
		Fanout: c.Fanout, Batch: c.Batch, Policy: c.Policy,
		Controller: c.Controller, Limits: c.Limits,
		ShuffleEvery: c.ShuffleEvery,
		BufferCap:    c.BufferCap, BufferMaxAge: c.BufferMaxAge, SeenCap: c.SeenCap,
		// Every extension the configuration asks for.
		Topics: c.Mode == ModeTopics, SemanticBias: c.SemanticBias,
		AntiEntropy: c.AntiEntropy,
	}
	if c.Membership == MemberCyclon {
		par.ViewCap = c.ViewCap
	}
	return par
}
