package protocol

import (
	"fairgossip/internal/adaptive"
	"fairgossip/internal/gossip"
)

// ControllerKind selects the adaptation law for a peer.
type ControllerKind uint8

const (
	// ControllerStatic pins F and N (classic gossip, the unfair baseline).
	ControllerStatic ControllerKind = iota + 1
	// ControllerAIMD adapts via additive increase / multiplicative decrease.
	ControllerAIMD
	// ControllerProportional adapts via a damped P-controller.
	ControllerProportional
)

// ControllerSpec describes how a peer adapts its participation; the zero
// value is static, and an adaptive kind with no Lever moves both.
type ControllerSpec struct {
	Kind        ControllerKind
	Lever       adaptive.Lever // which §5.2 lever(s) may move (AIMD/Proportional)
	TargetRatio float64        // f: desired contribution bytes per unit benefit
	Gain, Beta  float64        // see adaptive.Config
}

const (
	ControlWindow = 5 // rounds between controller updates
	ShuffleLen    = 8 // entries a Cyclon shuffle exchanges (NewCyclon clamps it to the view capacity)

	// The failure detector: a view entry whose peer leaves EvictStrikes
	// consecutive shuffle offers unanswered is evicted, and its address
	// refused from incoming entries for QuarantineRounds rounds (direct
	// contact lifts that at once).
	EvictStrikes     = 3
	QuarantineRounds = 64

	// The join hand-shake: an isolated joiner re-announces itself at most
	// JoinAttempts times, backing off exponentially up to JoinBackoffCap
	// membership rounds (plus seeded jitter) in between.
	JoinAttempts   = 8
	JoinBackoffCap = 16

	// EagerHops is how many of an event's hops leave at once: Publish
	// sends hop 1 (wire.KindEager), and a peer relays a hop-h push's new
	// events on receipt as hop h+1 while h < EagerHops; later hops wait for
	// rounds. It was swept over 2–5 on the four bench workloads: medians
	// against the rule it replaced (the publisher's push and its
	// receivers' relay), seeds 1–3 at H = 2 and 3, 1–10 at 4 and 5
	// (PERFORMANCE.md "The first H hops"):
	//
	//	H   live-chan p50 / p99 / CPU   sim-fair p50 / CPU   sim-huge p50 / RSS
	//	2   −19 % /  +1 % / +2 %        +3 % /  −3 %         +5 % / −3 %
	//	3   −82 % / −32 % / +7 %       −24 % /  −6 %         −8 % / −2 %
	//	4   −74 % / −61 % / +5 %       −41 % /  +7 %        −17 % / −1 %
	//	5   −73 % / −70 % / +6 %       −47 % / +21 %        −27 % / +5 %
	//
	// 4 is the largest H that moves no metric it should not: at 5,
	// sim-huge's peak RSS rose in 10 of 10 pairs and sim-fair's CPU per
	// delivery by a fifth. Each hop multiplies an event's eager copies by
	// the fanout; flooding every event more than doubled sim-huge's RSS.
	EagerHops = 4
)

// Params is what a driver's own configuration (core.Config, live.Config)
// comes to once its defaults are filled in: the values a Peer reads. A
// cluster builds one and every Peer of it points at it, read-only. There
// is no defaulting here — that stays where the options are declared.
type Params struct {
	Fanout, Batch int           // initial (or static) levers F and N
	Policy        gossip.Policy // SELECTEVENTS policy
	// Controller selects static or adaptive participation; Limits bound
	// the levers, the zero value meaning adaptive.DefaultLimits of the
	// population the peer was built into.
	Controller ControllerSpec
	Limits     adaptive.Limits

	// ViewCap > 0 runs a Cyclon partial view of that capacity, initiating
	// a shuffle every ShuffleEvery rounds; 0 is the idealised uniform
	// sampler over the whole population.
	ViewCap, ShuffleEvery int

	BufferCap    int // event buffer capacity
	BufferMaxAge int // rounds an event stays forwardable at most
	SeenCap      int // dedup memory

	// The extensions only the simulator runs (core.Config sets them, live
	// leaves them zero); Recv reports the kinds of one that is off as
	// unhandled. Topics runs §5.1's per-topic gossip groups, joined by
	// random walks (topics.go). SemanticBias ∈ (0, 1] biases that share of
	// the partners towards peers of overlapping interest (semantic.go).
	// AntiEntropy > 0 makes the peer keep an archive, send a digest every
	// that many rounds and answer digests, and serve pulls — which every
	// peer answers — from the archive (pushpull.go).
	Topics       bool
	SemanticBias float64
	AntiEntropy  int
}

// controller instantiates the peer-local controller for a population of
// n, or returns nil for the static one, whose levers stay at Fanout and
// Batch.
func (par *Params) controller(n int) adaptive.Controller {
	spec := par.Controller
	if spec.Kind != ControllerAIMD && spec.Kind != ControllerProportional {
		return nil // static: no limits to compute (a math.Log per peer built)
	}
	limits := par.Limits
	if limits == (adaptive.Limits{}) {
		limits = adaptive.DefaultLimits(n)
	}
	acfg := adaptive.Config{TargetRatio: spec.TargetRatio, Gain: spec.Gain, Beta: spec.Beta, Limits: limits}
	if spec.Kind == ControllerAIMD {
		return adaptive.NewAIMD(acfg, spec.Lever, par.Fanout, par.Batch)
	}
	return adaptive.NewProportional(acfg, spec.Lever, par.Fanout, par.Batch)
}
