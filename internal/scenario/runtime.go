package scenario

import (
	"math/rand"
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
// pub/sub operations, fault injection, membership growth, and time. It
// is implemented by both the deterministic simulation (core.Cluster) and
// the goroutine-per-peer runtime (live.Cluster), which is what makes
// differential testing possible: one seeded schedule, two runtimes, the
// same invariants.
type Runtime interface {
	// Name labels the runtime in results ("sim" or "live").
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

	// Crash / Rejoin / SetFreeRider / Partition / Heal / SetLoss inject
	// the scenario fault vocabulary.
	Crash(id int) bool
	Rejoin(id int) bool
	SetFreeRider(id int, on bool) bool
	Partition(side []int)
	Heal()
	SetLoss(p float64)
	// Leave departs a peer gracefully: it hands its freshest view
	// entries to its neighbours before going silent (both runtimes
	// implement the same KindLeave hand-off protocol).
	Leave(id int) bool

	// SetShape swaps the WAN shaping profile mid-run (round-relative
	// units, converted to the runtime's own clock): live clusters always
	// carry the middleware, the sim swaps its latency model and composed
	// loss.
	SetShape(sp ShapeSpec)
	// Rebind moves a peer to a fresh transport address and re-announces
	// it through the join path. On substrates without real addresses
	// (sim, chan) it is a successful no-op — the address IS the id.
	Rebind(id int) bool

	// Join boots a new peer mid-run, bootstrapped through seed, and
	// returns its id (ids stay dense). On every runtime the joiner buys
	// its introduction with charged membership traffic.
	Join(seed int) (int, bool)

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
	// Must stay readable after Close (hygiene is judged post-drain).
	Views() [][]int
	// Close releases the runtime (stops live goroutines).
	Close()
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
type SimRuntime struct {
	C *core.Cluster

	// faultLoss and shapeLoss are the two independent loss layers; the
	// network gets their composition 1-(1-fault)(1-shape). The sim has
	// one drop counter, so unlike the live columns the two layers are
	// not separable in Traffic() — but conservation still holds exactly.
	faultLoss float64
	shapeLoss float64
}

// NewSimRuntime builds a simulated cluster configured for a scenario:
// content mode over the same Cyclon partial views, shuffle cadence,
// failure detector and join hand-shake the live columns run, so the
// differential table demands the same invariants of one protocol
// configuration on three substrates.
func NewSimRuntime(sc Scenario, seed int64) *SimRuntime {
	sc = sc.withDefaults()
	cfg := core.Config{
		Mode:          core.ModeContent,
		Membership:    core.MemberCyclon,
		ViewCap:       viewCap,
		ShuffleEvery:  sc.ShuffleEvery,
		Fanout:        sc.Fanout,
		Batch:         sc.Batch,
		BufferMaxAge:  sc.BufferMaxAge,
		RepairPenalty: sc.RepairPenalty,
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
	c := core.NewShardedCluster(sc.N, sc.Shards, cfg, core.ClusterOptions{
		Seed:      seed,
		NetConfig: simnet.Config{Latency: simnet.ConstantLatency(simBaseLatency)},
	})
	rt := &SimRuntime{C: c}
	if sc.Shape != nil {
		rt.SetShape(*sc.Shape)
	}
	return rt
}

func (s *SimRuntime) Name() string { return "sim" }
func (s *SimRuntime) N() int       { return s.C.N() }

func (s *SimRuntime) Start() { s.C.Start() }

func (s *SimRuntime) valid(id int) bool { return id >= 0 && id < s.C.N() }

func (s *SimRuntime) Subscribe(id int, f pubsub.Filter) (pubsub.SubID, bool) {
	if !s.valid(id) {
		return 0, false
	}
	return s.C.Node(id).Subscribe(f), true
}

func (s *SimRuntime) Unsubscribe(id int, sub pubsub.SubID) bool {
	return s.valid(id) && s.C.Node(id).Unsubscribe(sub)
}

func (s *SimRuntime) Publish(id int, topic string, attrs []pubsub.Attr, payload []byte) bool {
	if !s.valid(id) {
		return false
	}
	s.C.Node(id).Publish(topic, attrs, payload)
	return true
}

func (s *SimRuntime) OnDeliver(id int, fn func(*pubsub.Event)) bool {
	if !s.valid(id) {
		return false
	}
	s.C.Node(id).OnDeliver = fn
	return true
}

func (s *SimRuntime) Crash(id int) bool {
	if !s.valid(id) {
		return false
	}
	s.C.Node(id).Leave()
	return true
}

func (s *SimRuntime) Rejoin(id int) bool {
	if !s.valid(id) {
		return false
	}
	// Bootstrap through the lowest-numbered live node.
	boot := simnet.NodeID(0)
	for i := 0; i < s.C.N(); i++ {
		if i != id && s.C.Up(simnet.NodeID(i)) {
			boot = simnet.NodeID(i)
			break
		}
	}
	s.C.Node(id).Rejoin(boot)
	return true
}

func (s *SimRuntime) SetFreeRider(id int, on bool) bool {
	if !s.valid(id) {
		return false
	}
	s.C.Node(id).FreeRide = on
	return true
}

func (s *SimRuntime) Leave(id int) bool {
	if !s.valid(id) {
		return false
	}
	s.C.Leave(simnet.NodeID(id))
	return true
}

func (s *SimRuntime) Views() [][]int {
	views := make([][]int, s.C.N())
	for i := range views {
		for _, id := range s.C.Node(i).View().IDs() {
			views[i] = append(views[i], int(id))
		}
	}
	return views
}

func (s *SimRuntime) Join(seed int) (int, bool) {
	id, err := s.C.Join(simnet.NodeID(seed))
	return int(id), err == nil
}

func (s *SimRuntime) Partition(side []int) {
	ids := make([]simnet.NodeID, 0, len(side))
	for _, id := range side {
		ids = append(ids, simnet.NodeID(id))
	}
	s.C.Partition(ids)
}

func (s *SimRuntime) Heal() { s.C.Heal() }

func (s *SimRuntime) SetLoss(p float64) {
	s.faultLoss = p
	s.applyLoss()
}

// applyLoss installs the composition of the fault and shaper loss
// layers: a message survives only if both layers pass it.
func (s *SimRuntime) applyLoss() {
	s.C.SetLoss(1 - (1-s.faultLoss)*(1-s.shapeLoss))
}

// SetShape maps a round-relative spec onto the simulator: Loss composes
// with fault loss, Delay/Jitter/Reorder become a latency model drawn
// from the sim's own seeded RNG (so shaped runs stay bit-deterministic).
// The reorder draw mirrors the live shaper: with probability Reorder a
// message takes a large extra delay, up to 3×(delay+jitter), and
// overtakes traffic sent after it.
func (s *SimRuntime) SetShape(sp ShapeSpec) {
	s.shapeLoss = sp.Loss
	s.applyLoss()
	delay := time.Duration(sp.DelayRounds * float64(simRound))
	jitter := time.Duration(sp.JitterRounds * float64(simRound))
	if delay <= 0 && jitter <= 0 && sp.Reorder <= 0 {
		s.C.SetLatency(simnet.ConstantLatency(simBaseLatency))
		return
	}
	reorder := sp.Reorder
	span := 3 * (delay + jitter)
	if span <= 0 {
		span = time.Millisecond
	}
	s.C.SetLatency(func(rng *rand.Rand, _, _ simnet.NodeID) time.Duration {
		d := simBaseLatency + delay
		if jitter > 0 {
			d += time.Duration(rng.Int63n(int64(jitter)))
		}
		if reorder > 0 && rng.Float64() < reorder {
			d += time.Duration(rng.Int63n(int64(span)))
		}
		return d
	})
}

// Rebind is a successful no-op: the simulator addresses nodes by dense
// id, so an address change is invisible to it.
func (s *SimRuntime) Rebind(id int) bool { return s.valid(id) }

func (s *SimRuntime) RunRounds(rounds int) { s.C.RunRounds(rounds) }

// Settle runs the tail rounds, then stops the round tickers and lets
// the event queue empty, so no message is in flight when conservation
// is checked.
func (s *SimRuntime) Settle(rounds int) {
	s.C.RunRounds(rounds)
	s.C.Stop()
	s.C.Drain()
}

func (s *SimRuntime) Ledger() *fairness.Ledger { return s.C.Ledger }

func (s *SimRuntime) Traffic() (sent, recv, dropped uint64) {
	t := s.C.TotalTraffic()
	return t.MsgsSent, t.MsgsRecv, t.Dropped
}

func (s *SimRuntime) Close() { s.C.Stop() }

// --- Live runtime ------------------------------------------------------------

// LiveRoundPeriod is the gossip period scenarios use on the live runtime:
// short enough that a 50-round scenario finishes in well under a second.
const LiveRoundPeriod = 5 * time.Millisecond

// LiveRuntime adapts live.Cluster (one goroutine per peer, wall clock),
// over either transport: "live" is the in-process chan substrate,
// "live-udp" runs the same protocol over one real loopback datagram
// socket per peer — the third differential column. The cluster's own
// methods serve every Runtime method whose signature and meaning match
// (RunRounds and Settle pace the column in wall time); what follows
// adapts the rest.
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

// NewLiveUDPRuntime builds a live cluster whose peers talk through real
// loopback UDP sockets (encode-on-send, decode-on-receive, one socket
// per peer). The error is the bind, if the host refuses that many
// sockets.
func NewLiveUDPRuntime(sc Scenario, seed int64) (*LiveRuntime, error) {
	return newLiveRuntime(sc, seed, transport.UDP(), "live-udp")
}

func newLiveRuntime(sc Scenario, seed int64, tf transport.Factory, name string) (*LiveRuntime, error) {
	sc = sc.withDefaults()
	// Always install the shaping middleware — inert when the scenario
	// declares no profile (one atomic load per send), shaped otherwise —
	// so the Shape action works mid-run on every live column.
	prof := liveProfile(sc.Shape, LiveRoundPeriod)
	c, err := live.NewCluster(live.Config{
		N:            sc.N,
		Fanout:       sc.Fanout,
		Batch:        sc.Batch,
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

// SetShape swaps the middleware profile (always installed — see
// newLiveRuntime), converted to this column's wall-clock round.
func (l *LiveRuntime) SetShape(sp ShapeSpec) {
	l.Cluster.SetShape(liveProfile(&sp, LiveRoundPeriod))
}

func (l *LiveRuntime) Join(seed int) (int, bool) {
	id, err := l.Cluster.Join(seed)
	return id, err == nil
}

// Traffic returns the live runtime's envelope-level counters. Since
// the transport refactor every loss the runtime can cause is counted
// (injected faults, full inboxes, refused sends), so the tightened
// drop-conservation invariant applies to live runs too: a storm can no
// longer pass while losing messages invisibly.
func (l *LiveRuntime) Traffic() (sent, recv, dropped uint64) {
	t := l.Cluster.Traffic()
	return t.Sent, t.Recv, t.Dropped
}

func (l *LiveRuntime) Close() { l.Stop() }
