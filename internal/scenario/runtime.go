package scenario

import (
	"fmt"
	"time"

	"fairgossip/internal/core"
	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/live"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/transport"
)

// Runtime is the small surface a scenario needs from a cluster: the three
// pub/sub operations, fault injection, membership growth, and time. Both
// drivers of protocol.Peer (core.Cluster, live.Cluster) serve its per-peer
// and fault calls themselves with one meaning, which is what makes
// differential testing possible: one seeded schedule, two runtimes, the
// same invariants.
type Runtime interface {
	// Name labels the runtime in results (one of Columns).
	Name() string
	// N returns the current population size (it grows under Join).
	N() int

	// Start launches the cluster (idempotent; sim starts lazily).
	Start()
	// Subscribe registers a filter on a peer.
	Subscribe(id int, f pubsub.Filter) (pubsub.SubID, bool)
	// Unsubscribe removes a subscription from a peer.
	Unsubscribe(id int, sub pubsub.SubID) bool
	// Publish originates an event at a peer. Event IDs are (publisher,
	// seq) with seq starting at 1 per publisher, on both runtimes, so the
	// engine can predict them.
	Publish(id int, topic string, attrs []pubsub.Attr, payload []byte) bool
	// OnDeliver installs a delivery observer (install before Start).
	OnDeliver(id int, fn func(*pubsub.Event)) bool

	// Crash / Rejoin / SetFreeRider / Partition / Heal inject the
	// scenario fault vocabulary; link loss is SetShape's.
	Crash(id int) bool
	Rejoin(id int) bool
	SetFreeRider(id int, on bool) bool
	Partition(side []int)
	Heal()
	// Leave departs a peer gracefully: it hands its freshest view
	// entries to its neighbours before going silent (both runtimes
	// implement the same KindLeave hand-off protocol).
	Leave(id int) bool

	// SetShape swaps the WAN shaping profile mid-run (round-relative
	// units, converted to the runtime's own clock). Its Loss is the
	// column's one loss layer: the engine folds the scenario's fault
	// loss into it (Run.SetLoss).
	SetShape(sp ShapeSpec)
	// Rebind moves a peer to a fresh transport address and re-announces
	// it through the join path. On substrates without real addresses
	// (sim, chan) it is a successful no-op — the address IS the id.
	Rebind(id int) bool

	// Join boots a new peer mid-run, bootstrapped through seed, and
	// returns its id (ids stay dense). On every runtime the joiner buys
	// its introduction with charged membership traffic.
	Join(seed int) (int, error)

	// RunRounds advances time by whole gossip rounds (virtual time on
	// sim, wall time on live).
	RunRounds(rounds int)
	// Settle quiesces the runtime after the schedule ends: at least
	// `rounds` further rounds, then (sim) until no message is in flight,
	// (live) until the delivery total stops moving.
	Settle(rounds int)

	// Ledger exposes the shared fairness ledger.
	Ledger() *fairness.Ledger
	// Traffic returns the network-level message counters; every runtime
	// must count every loss it can cause, because drop conservation
	// (sent == recv + dropped) is checked on all of them.
	Traffic() (sent, recv, dropped uint64)
	// Views snapshots every peer's partial view (indexed by peer id).
	// Must stay readable after Stop (hygiene is judged post-drain).
	Views() [][]int
	// Stop releases the runtime (stops live goroutines).
	Stop()
}

// Columns names the differential columns in table order: the simulator,
// then the live runtime over in-process channels and over real loopback
// UDP sockets.
var Columns = []string{"sim", "live", "live-udp"}

// NewRuntime builds one of Columns for a scenario. The error is an
// unknown column, or the UDP column's bind if the host refuses that many
// sockets.
func NewRuntime(column string, sc Scenario, seed int64) (Runtime, error) {
	switch column {
	case "sim":
		return NewSimRuntime(sc, seed), nil
	case "live":
		return NewLiveRuntime(sc, seed), nil
	case "live-udp":
		rt, err := newLiveRuntime(sc, seed, transport.UDP(), column)
		if err != nil {
			return nil, err
		}
		return rt, nil
	}
	return nil, fmt.Errorf("scenario: unknown column %q (want one of %v)", column, Columns)
}

// --- Simulated runtime -------------------------------------------------------

// simRound is the simulator's virtual gossip round (the core.Config
// RoundPeriod default) — the unit ShapeSpec's round-relative fields are
// converted with on the sim column.
const simRound = 100 * time.Millisecond

// simBaseLatency is the sim column's unshaped one-way delay.
const simBaseLatency = 2 * time.Millisecond

// SimRuntime adapts core.Cluster (deterministic discrete-event sim,
// split across Scenario.Shards per-core shards when that is above one).
// The cluster serves every per-peer and fault call itself, with
// live.Cluster's signatures; what follows adapts the rest.
type SimRuntime struct{ *core.Cluster }

// NewSimRuntime builds a simulated cluster configured for a scenario:
// content mode over the same Cyclon partial views, shuffle cadence,
// failure detector and join hand-shake the live columns run, so the
// differential table demands the same invariants of one protocol
// configuration on three substrates.
func NewSimRuntime(sc Scenario, seed int64) *SimRuntime {
	sc = sc.withDefaults()
	cfg := core.Config{
		Mode:         core.ModeContent,
		Membership:   core.MemberCyclon,
		ViewCap:      viewCap,
		ShuffleEvery: sc.ShuffleEvery,
		Fanout:       fanout,
		Batch:        batch,
		BufferMaxAge: sc.BufferMaxAge,
		// Least-sent selection guarantees every fresh event wins send
		// slots even under flash-crowd backlog; the eventual-delivery
		// invariant is a real protocol property only in that regime
		// (random selection can starve an event at its publisher — the
		// EXP-A4 result).
		Policy: gossip.PolicyLeastSent,
	}
	if sc.TargetRatio > 0 {
		cfg.Controller = core.ControllerSpec{Kind: core.ControllerAIMD, TargetRatio: sc.TargetRatio}
	}
	rt := &SimRuntime{core.NewShardedCluster(sc.N, sc.Shards, cfg, core.ClusterOptions{
		Seed:      seed,
		NetConfig: simnet.Config{Latency: simnet.ConstantLatency(simBaseLatency)},
	})}
	if sc.Shape != nil {
		rt.SetShape(*sc.Shape)
	}
	return rt
}

func (s *SimRuntime) Name() string { return "sim" }

func (s *SimRuntime) Ledger() *fairness.Ledger { return s.Cluster.Ledger }

func (s *SimRuntime) Traffic() (sent, recv, dropped uint64) {
	t := s.TotalTraffic()
	return t.MsgsSent, t.MsgsRecv, t.Dropped
}

// SetShape converts the spec to the sim's virtual round; the cluster
// drops with its loss and adds its hold to every delay.
func (s *SimRuntime) SetShape(sp ShapeSpec) { s.Cluster.SetShape(shapeProfile(&sp, simRound)) }

// Rebind is a successful no-op: the simulator addresses nodes by dense
// id, so an address change is invisible to it.
func (s *SimRuntime) Rebind(id int) bool { return id >= 0 && id < s.N() }

// --- Live runtime ------------------------------------------------------------

// LiveRoundPeriod is the gossip period scenarios use on the live runtime:
// short enough that a 50-round scenario finishes in well under a second.
const LiveRoundPeriod = 5 * time.Millisecond

// LiveRuntime adapts live.Cluster (one goroutine per peer, wall clock)
// over either transport: the in-process chan substrate ("live") or one
// real loopback datagram socket per peer ("live-udp"). The cluster serves
// every Runtime method whose meaning matches; what follows adapts the rest.
type LiveRuntime struct {
	*live.Cluster
	name string
}

// NewLiveRuntime builds a live cluster configured for a scenario, on
// the default in-process transport.
func NewLiveRuntime(sc Scenario, seed int64) *LiveRuntime {
	rt, err := newLiveRuntime(sc, seed, nil, "live")
	if err != nil {
		// The in-process transport cannot fail to construct.
		panic(err)
	}
	return rt
}

func newLiveRuntime(sc Scenario, seed int64, tf transport.Factory, name string) (*LiveRuntime, error) {
	sc = sc.withDefaults()
	prof := shapeProfile(sc.Shape, LiveRoundPeriod)
	c, err := live.NewCluster(live.Config{
		N:            sc.N,
		Fanout:       fanout,
		Batch:        batch,
		RoundPeriod:  LiveRoundPeriod,
		TargetRatio:  sc.TargetRatio,
		BufferMaxAge: sc.BufferMaxAge,
		Policy:       gossip.PolicyLeastSent, // see NewSimRuntime
		ViewCap:      viewCap,
		ShuffleEvery: sc.ShuffleEvery,
		Seed:         seed,
		Transport:    tf,
		Shape:        &prof,
	})
	if err != nil {
		return nil, err
	}
	return &LiveRuntime{Cluster: c, name: name}, nil
}

func (l *LiveRuntime) Name() string { return l.name }

// SetShape swaps the shaping middleware's profile, converted to this
// column's wall-clock round.
func (l *LiveRuntime) SetShape(sp ShapeSpec) {
	l.Cluster.SetShape(shapeProfile(&sp, LiveRoundPeriod))
}

// Traffic returns the envelope-level counters, where every loss the
// runtime can cause is counted (injected faults, full inboxes, refused
// sends, the shaper), so drop conservation holds on live runs too.
func (l *LiveRuntime) Traffic() (sent, recv, dropped uint64) {
	t := l.Cluster.Traffic()
	return t.Sent, t.Recv, t.Dropped
}
