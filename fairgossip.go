// Package fairgossip is a fairness-aware selective event dissemination
// library — a full implementation of the system sketched in "Towards Fair
// Event Dissemination" (Baehni, Guerraoui, Koldehofe, Monod; ICDCS 2007).
//
// The paper's position: decentralised publish/subscribe is only
// meaningful if it is *fair* — each participant's contribution (messages
// forwarded and published) should track its benefit (events delivered,
// subscriptions held), so that the ratio contribution/benefit is the same
// constant f for every peer (the paper's Fig. 1). This library provides:
//
//   - The selective-information model of §2: typed events, a subscription
//     language with topic and content filters, and per-process interest.
//   - The basic push gossip dissemination algorithm of Fig. 4.
//   - Fairness accounting per Figs. 1–3 (contribution/benefit ledger,
//     Jain/Gini/Lorenz reports).
//   - The §5.2 adaptive participation controllers that steer each peer's
//     fanout and gossip message size toward the fairness target.
//   - Topic-based gossip groups with random-walk subscriptions (§5.1).
//   - The baselines the paper measures itself against: Scribe-style
//     rendezvous trees over a prefix-routing DHT, data-aware multicast
//     over topic hierarchies, and load-balanced (SplitStream-flavoured)
//     forwarding.
//
// Two runtimes are provided. NewSim builds a deterministic
// discrete-event-simulated cluster (what the experiments in
// cmd/fairbench use); NewLive builds a real-concurrency cluster with one
// goroutine per peer, suitable for embedding in applications. They are
// two drivers of one peer: the protocol itself — push round, Cyclon
// exchange, failure detector, join back-off — is written once, in
// internal/protocol, with no clock, goroutine or socket in it.
//
// Both runtimes can be driven through the fault-injection scenario
// engine (RunScenario): seeded schedules of churn, partitions, loss,
// flash crowds, subscription churn and free-riders, with machine-checked
// invariants. SCENARIOS.md at the repository root documents the scenario
// vocabulary, the built-in table, and each invariant. Scenario has no
// CheckFairness, ViewCap, Payload or Regions field: fairness is checked
// iff TargetRatio > 0, view capacity (24) and payload (64 B) are
// constants, and a regional outage names its region count in its step.
//
// The live runtime moves messages through a pluggable transport: the
// default delivers encoded envelopes in-process; TransportUDP runs one
// real loopback datagram socket per peer with the compact binary wire
// codec on both ends (see cmd/fairnode and examples/udpmesh for a
// multi-socket cluster end to end).
//
// Live membership is a Cyclon partial view per peer, maintained as real
// wire traffic: shuffle offers and replies are encoded envelopes whose
// bytes are charged to the fairness ledger as infrastructure
// contribution, and gossip partner selection samples the view — no peer
// reads a full membership roster. Clusters are dynamic:
// LiveCluster.Join boots a new peer into a running cluster through a
// seed peer (on UDP it binds a fresh socket), and the scenario engine's
// JoinNodes action / "join-wave" builtin exercise joining under the
// checked invariants.
//
// Quick start (live runtime):
//
//	c, err := fairgossip.NewLive(fairgossip.LiveConfig{N: 16, TargetRatio: 2000})
//	if err != nil { ... }
//	c.Subscribe(3, fairgossip.MustParseFilter(`price > 100`))
//	c.Start()
//	defer c.Stop()
//	c.Publish(0, "ticks", []fairgossip.Attr{{Key: "price", Val: fairgossip.Num(250)}}, nil)
package fairgossip

import (
	"fmt"

	"fairgossip/internal/core"
	"fairgossip/internal/fairness"
	"fairgossip/internal/live"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/scenario"
	"fairgossip/internal/transport"
)

// Core data model (see internal/pubsub).
type (
	// Event is a published notification.
	Event = pubsub.Event
	// EventID identifies an event as (publisher, sequence).
	EventID = pubsub.EventID
	// Attr is a typed event attribute.
	Attr = pubsub.Attr
	// Value is a typed attribute value (string, number or bool).
	Value = pubsub.Value
	// Filter is a compiled subscription-language expression.
	Filter = pubsub.Filter
	// SubID identifies an active subscription within one peer.
	SubID = pubsub.SubID
)

// Fairness accounting (see internal/fairness).
type (
	// Report summarises the contribution/benefit ratio distribution.
	Report = fairness.Report
	// Weights parameterises the contribution and benefit formulas.
	Weights = fairness.Weights
)

// Runtimes.
type (
	// LiveCluster is the goroutine-per-peer runtime.
	LiveCluster = live.Cluster
	// LiveConfig parameterises NewLive.
	LiveConfig = live.Config
	// SimCluster is the deterministic simulated runtime.
	SimCluster = core.Cluster
	// SimConfig parameterises a simulated cluster's protocol.
	SimConfig = core.Config
	// SimOptions parameterises a simulated cluster's environment.
	SimOptions = core.ClusterOptions
	// ControllerSpec selects static or adaptive participation.
	ControllerSpec = core.ControllerSpec
)

// Selectivity modes (SimConfig.Mode).
const (
	// ModeContent is expressive content-based selection over one flat
	// overlay (§5.2).
	ModeContent = core.ModeContent
	// ModeTopics is topic-based selection with per-topic gossip groups
	// (§5.1).
	ModeTopics = core.ModeTopics
)

// Controller kinds (ControllerSpec.Kind).
const (
	// ControllerStatic pins fanout and batch (classic gossip).
	ControllerStatic = core.ControllerStatic
	// ControllerAIMD adapts with additive-increase/multiplicative-decrease.
	ControllerAIMD = core.ControllerAIMD
	// ControllerProportional adapts with a damped P-controller.
	ControllerProportional = core.ControllerProportional
)

// Live-runtime transport plumbing (see internal/transport). A Transport
// is one peer's endpoint; a TransportNet wires a cluster's endpoints
// together; a TransportFactory is the LiveConfig.Transport knob. Custom
// substrates plug in by implementing these interfaces.
type (
	// Transport is a single peer's sending endpoint. Send must not keep
	// buf or hand it to a Handler after it returns; copy it.
	Transport = transport.Transport
	// TransportNet wires the endpoints of one cluster together. A custom
	// Net must implement Release, which takes back a buffer its Handler
	// was lent; a no-op is a valid Release.
	TransportNet = transport.Net
	// TransportHandler consumes one inbound encoded envelope.
	TransportHandler = transport.Handler
	// TransportFactory builds the TransportNet for an n-peer cluster.
	TransportFactory = transport.Factory
	// LiveTraffic is the live cluster's envelope-level traffic counters.
	LiveTraffic = live.Traffic
)

// WAN shaping middleware (see internal/transport). ShapeTransport wraps
// any TransportNet — the in-process channels, the UDP sockets, or a
// custom substrate — with per-link delay, jitter, reorder and i.i.d.
// loss, all drawn from one seeded RNG. Every shaper-induced loss is
// counted, so the cluster's sent == received + dropped ledger stays
// exact. The LiveConfig.Shape knob installs it inside a cluster;
// scenario shaping (ShapeSpec, the shaped-wan/regional-outage/
// mobile-rebind/intermittent-links builtins) drives it in
// round-relative units on every differential column.
type (
	// TransportProfile parameterises the shaping middleware.
	TransportProfile = transport.Profile
	// ShapedTransportNet is a TransportNet wrapped by ShapeTransport; it
	// adds SetProfile, Drops and Rebind on top of Net.
	ShapedTransportNet = transport.ShapedNet
	// ShapeSpec is a round-relative shaping profile for scenarios.
	ShapeSpec = scenario.ShapeSpec
)

// ShapeTransport wraps a TransportNet with the WAN shaping middleware.
func ShapeTransport(inner TransportNet, p TransportProfile) *ShapedTransportNet {
	return transport.Shape(inner, p)
}

// ShapePreset returns a named round-relative shaping profile ("none",
// "wan", "lossy-wan", "mobile") for scenario runs; nil means unshaped.
func ShapePreset(name string) (*ShapeSpec, bool) { return scenario.ShapePreset(name) }

// ShapePresetNames lists the ShapePreset vocabulary.
func ShapePresetNames() []string { return scenario.ShapePresetNames() }

// TransportChan returns the in-process transport factory — the default
// when LiveConfig.Transport is nil.
func TransportChan() TransportFactory { return transport.Chan() }

// TransportUDP returns the loopback-socket transport factory: one real
// datagram socket per peer, the wire codec on both ends, and
// datagram-size enforcement.
func TransportUDP() TransportFactory { return transport.UDP() }

// NewLive builds a real-concurrency cluster. Call Start to launch the
// peer goroutines and Stop to terminate them. The error comes from the
// configured transport (socket binds); with the default in-process
// transport it is always nil.
func NewLive(cfg LiveConfig) (*LiveCluster, error) { return live.NewCluster(cfg) }

// NewSim builds a deterministic simulated cluster of n peers.
func NewSim(n int, cfg SimConfig, opts SimOptions) *SimCluster {
	return core.NewCluster(n, cfg, opts)
}

// ParseFilter compiles subscription-language source text, e.g.
// `price > 100 && symbol in ["ACME", "GLOBEX"]`.
func ParseFilter(src string) (Filter, error) { return pubsub.Parse(src) }

// MustParseFilter is ParseFilter for constant filters; it panics on error.
func MustParseFilter(src string) Filter { return pubsub.MustParse(src) }

// TopicFilter matches events published on exactly the given topic.
func TopicFilter(topic string) Filter { return pubsub.Topic(topic) }

// TopicPrefixFilter matches a topic and all its dot-separated descendants.
func TopicPrefixFilter(prefix string) Filter { return pubsub.TopicPrefix(prefix) }

// MatchAll matches every event.
func MatchAll() Filter { return pubsub.MatchAll() }

// String returns a string attribute value.
func String(s string) Value { return pubsub.String(s) }

// Num returns a numeric attribute value.
func Num(f float64) Value { return pubsub.Num(f) }

// Bool returns a boolean attribute value.
func Bool(b bool) Value { return pubsub.Bool(b) }

// DefaultWeights returns the paper's Fig. 2 accounting weights.
func DefaultWeights() Weights { return fairness.DefaultWeights() }

// Scenario engine (see internal/scenario and SCENARIOS.md).
type (
	// Scenario is a seeded, declarative schedule of faults plus checked
	// invariants.
	Scenario = scenario.Scenario
	// ScenarioResult is the outcome of one scenario execution; Ok()
	// reports whether every invariant held.
	ScenarioResult = scenario.Result
)

// ScenarioNames lists the built-in scenarios in table order.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioByName returns a built-in scenario.
func ScenarioByName(name string) (Scenario, bool) { return scenario.ByName(name) }

// RunScenario executes a built-in scenario by name on the given runtime
// ("sim" — deterministic, same seed same result — "live", or "live-udp"
// over real loopback sockets) and returns the checked result.
func RunScenario(name, runtime string, seed int64) (*ScenarioResult, error) {
	sc, ok := scenario.ByName(name)
	if !ok {
		return nil, fmt.Errorf("fairgossip: unknown scenario %q (have %v)", name, scenario.Names())
	}
	return RunScenarioSpec(sc, runtime, seed)
}

// RunScenarioSpec executes an arbitrary (possibly custom) scenario.
func RunScenarioSpec(sc Scenario, runtime string, seed int64) (*ScenarioResult, error) {
	var rt scenario.Runtime
	switch runtime {
	case "sim", "":
		rt = scenario.NewSimRuntime(sc, seed)
	case "live":
		rt = scenario.NewLiveRuntime(sc, seed)
	case "live-udp":
		udp, err := scenario.NewLiveUDPRuntime(sc, seed)
		if err != nil {
			return nil, fmt.Errorf("fairgossip: udp runtime: %w", err)
		}
		rt = udp
	default:
		return nil, fmt.Errorf("fairgossip: unknown runtime %q (want sim, live or live-udp)", runtime)
	}
	return scenario.Execute(rt, sc, seed), nil
}
