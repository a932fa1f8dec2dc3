// Package scenario is the fault-injection scenario engine: a Scenario is
// a seeded, declarative schedule of timed adversities — churn waves,
// partitions and heals, link loss, flash-crowd bursts, subscription
// churn, free-riders — plus a set of Invariants checked during and after
// the run (no false delivery, eventual delivery to all connected
// interested peers, network drop conservation, ledger conservation,
// fairness-ratio convergence under the AIMD controller).
//
// Scenarios run against the small Runtime interface on one of Columns
// (NewRuntime): the deterministic simulation (core.Cluster, "sim") and
// the goroutine-per-peer runtime (live.Cluster) over in-process channels
// ("live") or real loopback UDP sockets ("live-udp"). Both clusters
// serve the per-peer and fault calls themselves, with one meaning, so
// the same seeded schedule drives every runtime and must satisfy the
// same invariants — differential testing of the implementations of the
// protocol. On the simulator a scenario is fully deterministic: one
// seed, one result, bit for bit.
//
// See SCENARIOS.md at the repository root for the scenario vocabulary,
// the built-in table, and the paper section each invariant
// operationalises.
package scenario

import (
	"sort"

	"fairgossip/internal/fairness"
	"fairgossip/internal/workload"
)

// Action is one fault operation applied to a running scenario.
type Action func(*Run)

// Step schedules an Action at a publishing round (0-based).
type Step struct {
	Round  int
	Action Action
}

// Scenario is a declarative, seeded schedule of adversity. The zero
// value of every field has a sensible default (see withDefaults), so
// scenarios read as deltas from a calm baseline.
type Scenario struct {
	Name string
	Note string

	// Population and protocol knobs (shared by both runtimes).
	N            int // peers (default 32)
	BufferMaxAge int // rounds an event stays forwardable (default 10)
	// TargetRatio > 0 runs the AIMD fairness controller and checks the
	// fairness-convergence invariant.
	TargetRatio float64
	// RepairPenalty is the §3.2 instability charge per rejoin of a peer
	// that was down (Run.Rejoin).
	RepairPenalty float64
	// Shards splits the sim column's kernel across that many per-core
	// shards (default 1: one kernel on the caller's goroutine, the
	// column TestSimColumnGolden pins). Runs are deterministic per
	// (seed, Shards); different shard counts are different, equally
	// valid executions because cross-shard messages quantise to round
	// barriers. Live columns ignore it.
	Shards int

	// ShuffleEvery is the rounds between a peer's Cyclon shuffle
	// initiations on every column (default 2).
	ShuffleEvery int

	// Workload: a Zipf topic set (topics, up to maxSubs per peer), then
	// PerRound popularity-sampled publications per round for Rounds
	// rounds.
	PerRound int // events published per round (default 2)

	// Rounds is the publishing phase (default 30), between warmupRounds
	// before it and drainRounds after.
	Rounds int

	// Steps are the timed fault actions; EveryRound, when set, runs each
	// publishing round after the timed steps (dynamic behaviour such as
	// rage-quit policies).
	Steps      []Step
	EveryRound func(*Run)

	// Shape, when set, is the WAN shaping profile installed before the
	// run starts (round-relative units; see ShapeSpec); the Shape action
	// swaps it mid-run on every runtime.
	Shape *ShapeSpec

	// MinDelivery is the eventual-delivery invariant floor: the fraction
	// of (eligible peer, event) pairs that must deliver (default 1).
	// Lossy schedules leave slack for stochastic tails.
	MinDelivery float64

	// CheckRecovery enables the bounded-recovery invariant: delivery
	// must reach the MinDelivery floor within recoveryC·N rounds of the
	// last fault action. The engine appends a settle phase after the
	// publishing schedule that steps the runtime one round at a time
	// until the floor is met or the budget runs out, recording the round
	// recovery was first observed.
	CheckRecovery bool

	// CheckViewHygiene enables the view-hygiene invariant: within 2·N
	// rounds of the last fault action, no live peer's membership view
	// may still hold the address of a down peer — graceful leavers via
	// the Leave hand-off, crashed peers via the probe-timeout failure
	// detector.
	CheckViewHygiene bool
}

// What no scenario ever varied (LINTING.md, "The options census").
const (
	warmupRounds  = 5   // rounds before publishing starts
	drainRounds   = 12  // rounds after publishing stops
	fairnessFloor = 0.5 // fairness-convergence: late-window Jain floor
	recoveryC     = 2   // bounded-recovery: budget is recoveryC·N rounds
	// viewCap is every column's partial-view capacity: large enough that
	// a 32-peer scenario's views mix well, small enough that they stay
	// genuinely partial and join-wave joiners must propagate.
	viewCap      = 24
	payloadBytes = 64 // every published event's payload
	fanout       = 5  // gossip fanout
	batch        = 8  // events per gossip message
	topics       = 16 // Zipf topic count
	maxSubs      = 4  // subscriptions per peer: 1..maxSubs
	// joinGrace is the joiner eligibility rule: a peer added by
	// JoinNodes is only required to deliver events published at least
	// joinGrace rounds after it joined — its view needs a few shuffles
	// to integrate before partner selection can find it.
	joinGrace = 3
)

func (sc Scenario) withDefaults() Scenario {
	if sc.N <= 0 {
		sc.N = 32
	}
	if sc.BufferMaxAge <= 0 {
		sc.BufferMaxAge = 10
	}
	if sc.Shards <= 0 {
		sc.Shards = 1
	}
	if sc.ShuffleEvery <= 0 {
		sc.ShuffleEvery = 2
	}
	if sc.PerRound <= 0 {
		sc.PerRound = 2
	}
	if sc.Rounds <= 0 {
		sc.Rounds = 30
	}
	if sc.MinDelivery <= 0 {
		sc.MinDelivery = 1
	}
	return sc
}

// --- Action vocabulary -------------------------------------------------------

// upFrac is the round(frac·N) action — frac·N rounded to nearest, half
// up, so 0.2 of 32 peers is 6 — one SampleDistinct draw of that many
// distinct random up peers (honest: up and not free-riding), then do on
// each in draw order.
func upFrac(frac float64, honest bool, do func(r *Run, id int)) Action {
	return func(r *Run) {
		k := int(frac*float64(r.N()) + 0.5)
		skip := func(id int) bool { return !r.NodeUp(id) || honest && r.NodeFree(id) }
		for _, id := range workload.SampleDistinct(r.Rng, r.N(), k, skip) {
			do(r, id)
		}
	}
}

// CrashFrac crashes round(frac·N) random up peers.
func CrashFrac(frac float64) Action { return upFrac(frac, false, (*Run).Crash) }

// LeaveFrac departs round(frac·N) random up peers gracefully: each
// hands its freshest view entries to its neighbours before going silent
// (see Run.Leave). For delivery eligibility a leaver counts like a crash.
func LeaveFrac(frac float64) Action { return upFrac(frac, false, (*Run).Leave) }

// FreeRiderFrac turns round(frac·N) random up, honest peers into
// free-riders: they keep receiving and delivering but stop forwarding.
func FreeRiderFrac(frac float64) Action {
	return upFrac(frac, true, func(r *Run, id int) { r.SetFreeRider(id, true) })
}

// ResubscribeFrac makes round(frac·N) random up peers drop all their
// subscriptions and draw a fresh interest set — subscription churn.
func ResubscribeFrac(frac float64) Action { return upFrac(frac, false, (*Run).Resubscribe) }

// RebindFrac makes round(frac·N) random up peers change their transport
// address mid-run (a mobile client switching networks) and re-announce
// through the join path. Peers stay up throughout, so their delivery
// eligibility is unchanged — a rebind must lose nothing.
func RebindFrac(frac float64) Action { return upFrac(frac, false, (*Run).RebindPeer) }

// RejoinAll brings every crashed peer back.
func RejoinAll() Action {
	return func(r *Run) {
		for id := 0; id < r.N(); id++ {
			if !r.NodeUp(id) {
				r.Rejoin(id)
			}
		}
	}
}

// SplitRandomHalf partitions a random half of the population away from
// the rest until a Heal.
func SplitRandomHalf() Action {
	return func(r *Run) {
		side := workload.SampleDistinct(r.Rng, r.N(), r.N()/2, nil)
		sort.Ints(side)
		r.Partition(side)
	}
}

// RegionalOutage cuts region (peers with id ≡ region mod regions) off
// from the rest of the population: intra-region traffic still flows. It
// is a Partition whose side is named by address region — one cut in the
// model, one in the runtime — and like any Partition it replaces a cut
// already in force; HealAll ends it. No-op unless regions > 0.
func RegionalOutage(region, regions int) Action {
	return func(r *Run) {
		if regions <= 0 {
			return
		}
		var members []int
		for id := 0; id < r.N(); id++ {
			if id%regions == region%regions {
				members = append(members, id)
			}
		}
		r.Partition(members)
	}
}

// HealAll removes any partition.
func HealAll() Action { return (*Run).Heal }

// Loss sets the i.i.d. link-loss probability.
func Loss(p float64) Action { return func(r *Run) { r.SetLoss(p) } }

// Shape swaps the shaping profile mid-run on every column;
// Shape(ShapeSpec{}) clears it. Like Loss, it does not change delivery
// eligibility — the MinDelivery floor carries the stochastic slack — but
// it counts as a fault action for the recovery clock.
func Shape(sp ShapeSpec) Action { return func(r *Run) { r.ShapeTo(sp) } }

// Burst publishes k extra popularity-sampled events this round — a flash
// crowd on top of the steady workload.
func Burst(k int) Action {
	return func(r *Run) {
		for i := 0; i < k; i++ {
			r.PublishRandom()
		}
	}
}

// JoinNodes boots k new peers mid-run, each bootstrapped through a
// random up, honest seed. Joiners draw a fresh interest set and become
// eligible for delivery once joinGrace expires (their views need a few
// shuffles to integrate — the fault-aware eligibility rule for joiners).
func JoinNodes(k int) Action {
	return func(r *Run) {
		for i := 0; i < k; i++ {
			r.JoinNode()
		}
	}
}

// rageQuitScenario models the paper's §1/§6 feedback loop dynamically:
// every 5 rounds each peer judges its windowed contribution/benefit
// ratio against the population median and rage-quits when it stays 2.5×
// above it, rejoining 4 rounds later. Churn here is data-dependent —
// driven by measured unfairness, not a fixed schedule — which is exactly
// what the EveryRound hook exists for.
func rageQuitScenario() Scenario {
	type rqState struct {
		rq   *workload.RageQuit
		prev []fairness.Account
	}
	return Scenario{
		Name:          "rage-quit",
		Note:          "peers quit when their measured window ratio is 2.5x the median, rejoin 4 rounds later",
		Rounds:        40,
		RepairPenalty: 200,
		EveryRound: func(r *Run) {
			st, _ := r.Scratch.(*rqState)
			if st == nil {
				st = &rqState{rq: workload.NewRageQuit(2.5, 2, 4), prev: r.Ledger().Snapshot()}
				r.Scratch = st
			}
			for _, id := range st.rq.Rejoins(r.Round) {
				r.Rejoin(id)
			}
			if r.Round%5 != 0 || r.Round == 0 {
				return
			}
			cur := r.Ledger().Snapshot()
			w := r.Ledger().Weights()
			ratios := make([]float64, len(cur))
			for i := range ratios {
				ratios[i] = fairness.Ratio(fairness.Delta(cur[i], st.prev[i]), w)
			}
			st.prev = cur
			if r.Round < 10 {
				return // warm-up before anyone judges fairness
			}
			quit, _ := st.rq.Check(r.Round, ratios, r.NodeUp)
			for _, id := range quit {
				r.Crash(id)
			}
		},
	}
}

// --- Built-in table ----------------------------------------------------------

// Builtins returns the built-in scenario table: one calm baseline plus
// one scenario per adversity axis and a combined storm. Each runs as a
// table-driven test against both runtimes.
func Builtins() []Scenario {
	return []Scenario{
		{
			Name: "calm",
			Note: "baseline: steady Zipf workload, no faults",
		},
		{
			Name:          "churn-waves",
			Note:          "two 25% crash waves with rejoins; survivors keep full delivery",
			RepairPenalty: 200,
			Steps: []Step{
				{Round: 6, Action: CrashFrac(0.25)},
				{Round: 14, Action: RejoinAll()},
				{Round: 18, Action: CrashFrac(0.25)},
				{Round: 26, Action: RejoinAll()},
			},
		},
		{
			Name: "partition-heal",
			Note: "random half splits off, then heals; each side keeps serving itself",
			Steps: []Step{
				{Round: 8, Action: SplitRandomHalf()},
				{Round: 20, Action: HealAll()},
			},
		},
		{
			Name:        "lossy",
			Note:        "10% i.i.d. link loss through most of the run; gossip redundancy absorbs it",
			MinDelivery: 0.98,
			Steps: []Step{
				{Round: 4, Action: Loss(0.10)},
				{Round: 26, Action: Loss(0)},
			},
		},
		{
			Name:         "flash-crowd",
			Note:         "a 40-event publish burst lands in one round on top of the steady load",
			BufferMaxAge: 14,
			MinDelivery:  0.99,
			Steps: []Step{
				{Round: 10, Action: Burst(40)},
			},
		},
		{
			Name: "sub-churn",
			Note: "every 5 rounds a quarter of the peers swap their whole interest set",
			Steps: []Step{
				{Round: 5, Action: ResubscribeFrac(0.25)},
				{Round: 10, Action: ResubscribeFrac(0.25)},
				{Round: 15, Action: ResubscribeFrac(0.25)},
				{Round: 20, Action: ResubscribeFrac(0.25)},
				{Round: 25, Action: ResubscribeFrac(0.25)},
			},
		},
		{
			Name: "free-riders",
			Note: "a quarter of the peers stop forwarding; the rest still reach everyone",
			Steps: []Step{
				{Round: 5, Action: FreeRiderFrac(0.25)},
			},
		},
		{
			Name:          "storm",
			Note:          "combined adversity: free-riders, loss, a crash wave and a flash crowd",
			BufferMaxAge:  14,
			RepairPenalty: 200,
			MinDelivery:   0.95,
			Steps: []Step{
				{Round: 4, Action: FreeRiderFrac(0.15)},
				{Round: 5, Action: Loss(0.05)},
				{Round: 8, Action: CrashFrac(0.20)},
				{Round: 12, Action: Burst(30)},
				{Round: 16, Action: RejoinAll()},
				{Round: 26, Action: Loss(0)},
			},
		},
		{
			Name:         "join-wave",
			Note:         "two waves of newcomers join mid-run through seed peers; they must integrate and deliver",
			N:            24,
			Rounds:       36,
			BufferMaxAge: 12,
			MinDelivery:  0.98,
			Steps: []Step{
				{Round: 8, Action: JoinNodes(4)},
				{Round: 18, Action: JoinNodes(4)},
			},
		},
		{
			Name:             "graceful-drain",
			Note:             "two 15% graceful-leave waves; leavers hand their views over, so survivors' views scrub fast and delivery holds",
			CheckRecovery:    true,
			CheckViewHygiene: true,
			Steps: []Step{
				{Round: 8, Action: LeaveFrac(0.15)},
				{Round: 16, Action: LeaveFrac(0.15)},
			},
		},
		{
			Name:             "crash-storm-recover",
			Note:             "crash waves under loss; once faults stop, probe timeouts must scrub the dead from every live view and delivery must recover within c·N rounds",
			BufferMaxAge:     14,
			ShuffleEvery:     1, // probe cadence = detection latency; tighten it for the storm
			MinDelivery:      0.99,
			CheckRecovery:    true,
			CheckViewHygiene: true,
			Steps: []Step{
				{Round: 4, Action: Loss(0.05)},
				{Round: 6, Action: CrashFrac(0.15)},
				{Round: 10, Action: CrashFrac(0.15)},
				{Round: 14, Action: Loss(0)},
			},
		},
		{
			Name:             "shaped-wan",
			Note:             "wide-area path: delay, jitter, reorder and 2% shaper loss the whole run, plus a crash wave the detector must scrub under delayed probes",
			Shape:            &ShapeSpec{DelayRounds: 0.25, JitterRounds: 0.35, Reorder: 0.08, Loss: 0.02},
			BufferMaxAge:     14,
			MinDelivery:      0.97,
			CheckRecovery:    true,
			CheckViewHygiene: true,
			Steps: []Step{
				{Round: 10, Action: CrashFrac(0.15)},
			},
		},
		{
			Name:             "regional-outage",
			Note:             "one of four address regions drops off the map mid-run, keeps gossiping internally, then reconnects; the boundary's losses land in the counted fault bucket",
			Shape:            &ShapeSpec{DelayRounds: 0.1, JitterRounds: 0.15},
			BufferMaxAge:     14,
			MinDelivery:      0.97,
			CheckRecovery:    true,
			CheckViewHygiene: true,
			Steps: []Step{
				{Round: 8, Action: RegionalOutage(1, 4)},
				{Round: 18, Action: HealAll()},
			},
		},
		{
			Name:             "mobile-rebind",
			Note:             "mobile clients on a jittery path: three waves of peers swap transport addresses mid-run and re-announce; the make-before-break rebind must lose nothing",
			Shape:            &ShapeSpec{DelayRounds: 0.1, JitterRounds: 0.4, Reorder: 0.05, Loss: 0.01},
			MinDelivery:      0.98,
			CheckRecovery:    true,
			CheckViewHygiene: true,
			Steps: []Step{
				{Round: 6, Action: RebindFrac(0.2)},
				{Round: 12, Action: RebindFrac(0.2)},
				{Round: 18, Action: RebindFrac(0.2)},
			},
		},
		{
			Name:          "intermittent-links",
			Note:          "connectivity blinks: repeated 50% shaper-loss blackouts with clear gaps; buffered redundancy rides them out",
			BufferMaxAge:  16,
			MinDelivery:   0.95,
			CheckRecovery: true,
			Steps: []Step{
				{Round: 4, Action: Shape(ShapeSpec{Loss: 0.5})},
				{Round: 8, Action: Shape(ShapeSpec{})},
				{Round: 12, Action: Shape(ShapeSpec{Loss: 0.5})},
				{Round: 16, Action: Shape(ShapeSpec{})},
				{Round: 20, Action: Shape(ShapeSpec{Loss: 0.5})},
				{Round: 24, Action: Shape(ShapeSpec{})},
			},
		},
		rageQuitScenario(),
		{
			Name:         "aimd-fair",
			Note:         "calm run under the AIMD controller; the fairness ratios must converge",
			TargetRatio:  2500,
			Rounds:       40,
			PerRound:     1,
			BufferMaxAge: 14,
			MinDelivery:  0.97, // AIMD may shed batch to its floor while converging
		},
	}
}

// ByName returns the built-in scenario with the given name.
func ByName(name string) (Scenario, bool) {
	for _, sc := range Builtins() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Names returns the built-in scenario names in table order.
func Names() []string {
	bs := Builtins()
	out := make([]string, len(bs))
	for i, sc := range bs {
		out[i] = sc.Name
	}
	return out
}
