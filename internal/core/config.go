// Package core implements FairGossip — the fairness-aware selective event
// dissemination protocol the paper sketches in §5. Every node runs, over
// one simulated network:
//
//   - push gossip dissemination (Fig. 4) with per-node fanout F_i and
//     gossip message size N_i,
//   - a membership substrate (Cyclon partial views or an idealised full
//     sampler), whose traffic is charged as infrastructure contribution,
//   - fairness accounting per Figs. 1–3 (contribution = bytes published +
//     forwarded; benefit = deliveries + κ·filters),
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

// ControllerKind selects the adaptation law for a node.
type ControllerKind uint8

const (
	// ControllerStatic pins F and N (classic gossip, the unfair baseline).
	ControllerStatic ControllerKind = iota + 1
	// ControllerAIMD adapts via additive increase / multiplicative decrease.
	ControllerAIMD
	// ControllerProportional adapts via a damped P-controller.
	ControllerProportional
)

// ControllerSpec describes how a node adapts its participation.
type ControllerSpec struct {
	Kind  ControllerKind
	Lever adaptive.Lever // which §5.2 lever(s) may move (AIMD/Proportional)
	// TargetRatio is f: desired contribution bytes per unit benefit.
	TargetRatio float64
	// Tolerance, Gain, Beta: see adaptive.Config.
	Tolerance float64
	Gain      float64
	Beta      float64
}

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

	// RoundPeriod is the gossip timer period T; Jitter desynchronises
	// nodes. Defaults: 100ms / 10ms.
	RoundPeriod time.Duration
	Jitter      time.Duration

	// Fanout and Batch are the initial (or static) F and N. Defaults 4/8.
	Fanout int
	Batch  int

	// Policy is the SELECTEVENTS policy (default random).
	Policy gossip.Policy

	// Controller selects static vs adaptive participation.
	Controller ControllerSpec
	// Limits bound the adaptive levers; zero value = adaptive.DefaultLimits(n).
	Limits adaptive.Limits
	// ControlWindow is how many rounds pass between controller updates
	// (default 5).
	ControlWindow int

	// Membership substrate (default MemberCyclon), with view capacity
	// (default 16) and shuffle period in rounds (default 4).
	Membership    Membership
	ViewCap       int
	ShuffleEvery  int
	BufferCap     int     // event buffer capacity (default 256)
	BufferMaxAge  int     // rounds an event stays forwardable at most (default 8; gossip.Buffer.Duplicate retires it sooner)
	SeenCap       int     // dedup memory (default 8192)
	RepairPenalty float64 // churn penalty charged per rejoin (default 0: off)
	JunkPadding   int     // bytes of junk a cheater pads per message (EXP-A6)

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

// Membership parameters of the overlay and the topic-mode (§5.1) groups.
const (
	shuffleLen   = 8  // entries exchanged per shuffle
	topicViewCap = 12 // per-topic group view capacity
	adLen        = 2  // membership ads piggybacked on topic gossip
	walkHopLimit = 16 // subscription walk TTL
)

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
	if c.Jitter < 0 {
		c.Jitter = 0
	} else if c.Jitter == 0 {
		c.Jitter = c.RoundPeriod / 10
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
	if c.Controller.Kind == 0 {
		c.Controller.Kind = ControllerStatic
	}
	if c.Controller.Lever == 0 {
		c.Controller.Lever = adaptive.LeverBoth
	}
	if c.ControlWindow <= 0 {
		c.ControlWindow = 5
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

// buildController instantiates the node-local controller for a population
// of size n.
func buildController(cfg Config, n int) adaptive.Controller {
	limits := cfg.Limits
	if limits == (adaptive.Limits{}) {
		limits = adaptive.DefaultLimits(n)
	}
	acfg := adaptive.Config{
		TargetRatio: cfg.Controller.TargetRatio,
		Tolerance:   cfg.Controller.Tolerance,
		Gain:        cfg.Controller.Gain,
		Beta:        cfg.Controller.Beta,
		Limits:      limits,
	}
	switch cfg.Controller.Kind {
	case ControllerAIMD:
		return adaptive.NewAIMD(acfg, cfg.Controller.Lever, cfg.Fanout, cfg.Batch)
	case ControllerProportional:
		return adaptive.NewProportional(acfg, cfg.Controller.Lever, cfg.Fanout, cfg.Batch)
	default:
		return adaptive.Static{F: cfg.Fanout, N: cfg.Batch}
	}
}
