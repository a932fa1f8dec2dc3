package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"fairgossip/internal/pubsub"
)

// TestBuiltinsOnSim runs every built-in scenario against the
// deterministic simulated runtime, at seeds 1–16 (a table costs ≈ 0.1 s
// of virtual-time execution); all invariants must pass at every one.
func TestBuiltinsOnSim(t *testing.T) {
	for _, sc := range Builtins() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 16; seed++ {
				res := Execute(NewSimRuntime(sc, seed), sc, seed)
				if !res.Ok() {
					t.Errorf("invariant violations:\n%s", res.String())
				}
				if res.Published == 0 || res.Deliveries == 0 {
					t.Errorf("degenerate run:\n%s", res.String())
				}
			}
		})
	}
}

// TestSimColumnHasAnOverlay: view-hygiene binds on the sim column. On the
// two builtins that take peers down for good, every up peer's view is
// inspectable, non-empty and within viewCap; some up peer still holds a
// dead address right after the last departure (so there is something to
// scrub); and none does from the round the settle phase recorded.
func TestSimColumnHasAnOverlay(t *testing.T) {
	for name, lastDeparture := range map[string]int{"crash-storm-recover": 10, "graceful-drain": 16} {
		sc, ok := ByName(name)
		if !ok {
			t.Fatalf("missing builtin %q", name)
		}
		shapes := func(r *Run, when string) {
			views := r.rt.Views()
			if len(views) != r.N() {
				t.Fatalf("%s %s: %d views for %d peers", name, when, len(views), r.N())
			}
			for id, view := range views {
				if r.NodeUp(id) && (len(view) == 0 || len(view) > viewCap) {
					t.Errorf("%s %s: up peer %d has %d view entries, want 1..%d", name, when, id, len(view), viewCap)
				}
			}
		}
		sc.Steps = append(sc.Steps, Step{Round: lastDeparture, Action: func(r *Run) {
			shapes(r, "right after the last departure")
			if r.hygieneOffender() == "" {
				t.Errorf("%s: no up peer holds a dead address right after round %d's departures", name, lastDeparture)
			}
		}})
		testInspect = func(r *Run) {
			shapes(r, "after the run")
			if off := r.hygieneOffender(); r.hygieneAt < 0 || off != "" {
				t.Errorf("%s: views recorded clean at round %d, yet after the run: %q", name, r.hygieneAt, off)
			}
		}
		res := Execute(NewSimRuntime(sc, 1), sc, 1)
		testInspect = nil
		if !res.Ok() {
			t.Errorf("violations:\n%s", res.String())
		}
		if res.HygieneBudget == 0 || !strings.Contains(res.String(), "views clean after") {
			t.Errorf("%s: the result does not report the hygiene measurement:\n%s", name, res.String())
		}
	}
}

// simColumnGolden pins the sim column of the scenario table: SHA-256
// over the concatenated Result.String() of every builtin at seed 1, in
// Builtins() order. It is what "the sim column did not move" means
// across refactors of core, simnet, eventsim or this engine's
// eligibility model — the scenario twin of fairbench's
// TestGoldenStdoutHash. A deliberate change to a builtin's schedule or
// to the protocol moves it; update it then, and say why. Moved once,
// from 10dddecf… (recorded at the parent of the PR that made
// core.Cluster the one engine), when per-node streams became
// randutil.NewStream's (PERFORMANCE.md "Determinism contract"), and
// once from 2f825720…, when holders began retiring an event after
// 2 × batch copies of it came back (gossip.Buffer.Duplicate): message
// counts fall in every builtin, every invariant still holds
// (PERFORMANCE.md "Redundancy budget"). And once from d2de404d…, when
// the sim column became the live columns' configuration — Cyclon views of
// viewCap entries shuffled every Scenario.ShuffleEvery rounds, the
// failure detector on, joiners and rejoiners introduced by
// protocol.Peer.Join over wire.KindJoin — and Result began to print the
// recovery and hygiene measurements (PERFORMANCE.md "Determinism
// contract"). And once from 6455a26d…, when an event's first two hops
// began to leave at once — the publisher's push on Publish, its
// receivers' relay on receipt — which moves every partner draw after a
// publication. And once from 508d1f8b…, when the hop went on the wire and
// an event's first protocol.EagerHops hops began to leave at once, which
// adds partner draws at every eager relay (PERFORMANCE.md "The first H
// hops").
const simColumnGolden = "5707a6c65eefb5578181445316f1f01170fbfe020ab4b81b6b34e67ff3759fe1"

func TestSimColumnGolden(t *testing.T) {
	h := sha256.New()
	for _, sc := range Builtins() {
		h.Write([]byte(Execute(NewSimRuntime(sc, 1), sc, 1).String()))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != simColumnGolden {
		t.Errorf("sim column hash %s, want %s — a fixed-seed builtin result changed", got, simColumnGolden)
	}
}

// TestBuiltinsOnLive runs the same seeded schedules against the
// goroutine-per-peer runtime — the differential half: a runtime-specific
// bug (a lost delivery, a leaked message, a broken fault hook) surfaces
// as an invariant violation on one runtime but not the other.
func TestBuiltinsOnLive(t *testing.T) {
	for _, sc := range Builtins() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := Execute(NewLiveRuntime(sc, 1), sc, 1)
			if !res.Ok() {
				t.Fatalf("invariant violations:\n%s", res.String())
			}
			if res.Published == 0 || res.Deliveries == 0 {
				t.Fatalf("degenerate run:\n%s", res.String())
			}
		})
	}
}

// TestBuiltinsOnLiveUDP is the third differential column: the same
// seeded schedules over real loopback datagram sockets — encode on
// send, decode on receive, one socket per peer. A codec bug, a socket
// lifecycle bug, or an accounting leak that the in-process transport
// hides surfaces here as an invariant violation (including the
// tightened drop-conservation: every datagram is received or counted
// dropped).
func TestBuiltinsOnLiveUDP(t *testing.T) {
	for _, sc := range Builtins() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rt, err := NewRuntime("live-udp", sc, 1)
			if err != nil {
				t.Fatalf("udp runtime: %v", err)
			}
			res := Execute(rt, sc, 1)
			if !res.Ok() {
				t.Fatalf("invariant violations:\n%s", res.String())
			}
			if res.Published == 0 || res.Deliveries == 0 {
				t.Fatalf("degenerate run:\n%s", res.String())
			}
			if res.Sent == 0 {
				t.Fatalf("udp runtime exposed no traffic counters:\n%s", res.String())
			}
		})
	}
}

// TestLiveTrafficCountersBalance: the live runtime now participates in
// drop conservation — the counters exist, flow, and balance exactly on
// the chan transport (the storm scenario forces inbox pressure and
// injected loss, so the drop buckets are not vacuous).
func TestLiveTrafficCountersBalance(t *testing.T) {
	sc, _ := ByName("storm")
	res := Execute(NewLiveRuntime(sc, 2), sc, 2)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if res.Sent == 0 || res.Dropped == 0 {
		t.Fatalf("storm produced no counted traffic/drops: sent %d dropped %d", res.Sent, res.Dropped)
	}
	if res.Sent != res.Recv+res.Dropped {
		t.Fatalf("traffic leak: sent %d != recv %d + dropped %d", res.Sent, res.Recv, res.Dropped)
	}
}

// TestSimDeterminism: on the simulated runtime the same seed must yield
// identical invariant metrics, bit for bit — the property fixed-seed
// regression baselines (and reproducible bug reports) rest on.
func TestSimDeterminism(t *testing.T) {
	for _, name := range []string{"calm", "storm", "sub-churn", "join-wave", "graceful-drain", "crash-storm-recover", "shaped-wan", "regional-outage", "mobile-rebind", "intermittent-links"} {
		sc, ok := ByName(name)
		if !ok {
			t.Fatalf("missing builtin %q", name)
		}
		a := Execute(NewSimRuntime(sc, 42), sc, 42)
		b := Execute(NewSimRuntime(sc, 42), sc, 42)
		if a.String() != b.String() {
			t.Errorf("%s not deterministic:\n--- run 1\n%s--- run 2\n%s", name, a.String(), b.String())
		}
		c := Execute(NewSimRuntime(sc, 43), sc, 43)
		if a.String() == c.String() {
			t.Errorf("%s ignored its seed: seeds 42 and 43 produced identical results", name)
		}
	}
}

// TestEligibilityExcludesCrashed: a peer that crashes before an event is
// published must not be counted eligible, and a peer that crashes while
// the event is pending is released.
func TestEligibilityExcludesCrashed(t *testing.T) {
	sc := Scenario{
		Name:   "crash-eligibility",
		N:      16,
		Rounds: 10,
		Steps: []Step{
			{Round: 2, Action: CrashFrac(0.5)},
		},
	}
	res := Execute(NewSimRuntime(sc, 7), sc, 7)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	// With half the population down, eligible pairs must be well below
	// the no-fault expectation but delivery over survivors stays total.
	if res.DeliveryRatio != 1 {
		t.Errorf("survivor delivery ratio %v, want 1", res.DeliveryRatio)
	}
}

// TestRepairPenaltyOnEveryColumn: the engine charges
// Scenario.RepairPenalty once for each peer it brings back from down, on
// every column, and nothing for a Rejoin of a peer that is up. While the
// penalty was a core.Config knob only the sim column charged it, and both
// live columns read 0 here.
func TestRepairPenaltyOnEveryColumn(t *testing.T) {
	rejoined := 0
	sc := Scenario{
		Name:          "repair-penalty",
		N:             16,
		Rounds:        10,
		RepairPenalty: 200,
		Steps: []Step{
			{Round: 2, Action: CrashFrac(0.25)},
			{Round: 5, Action: func(r *Run) {
				for id := 0; id < r.N(); id++ {
					if !r.NodeUp(id) {
						rejoined++
					}
				}
				RejoinAll()(r)
				r.Rejoin(0) // up by now: charges nothing
			}},
		},
	}
	for _, col := range Columns {
		rejoined = 0
		rt, err := NewRuntime(col, sc, 1)
		if err != nil {
			t.Fatalf("%s: %v", col, err)
		}
		if res := Execute(rt, sc, 1); !res.Ok() {
			t.Errorf("%s: violations:\n%s", col, res.String())
		}
		var charged float64
		for _, a := range rt.Ledger().Snapshot() {
			charged += a.ChurnPenalty
		}
		if rejoined == 0 || charged != 200*float64(rejoined) {
			t.Errorf("%s: %d rejoins charged %v in all, want 200 each", col, rejoined, charged)
		}
	}
}

// TestFreeRidersDoNotForward: with every peer but the publisher
// free-riding, events must still self-deliver but cannot spread — the
// engine's eligibility model stays sound either way.
func TestFreeRiderStillReceives(t *testing.T) {
	sc := Scenario{
		Name:   "free-rider-receives",
		N:      16,
		Rounds: 12,
		Steps: []Step{
			{Round: 0, Action: FreeRiderFrac(0.5)},
		},
	}
	res := Execute(NewSimRuntime(sc, 9), sc, 9)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if res.DeliveryRatio != 1 {
		t.Errorf("delivery ratio %v with free-riders, want 1 (they still receive)", res.DeliveryRatio)
	}
}

// TestJoinWaveGrowsPopulation: the join-wave builtin must actually
// grow the cluster, the joiners must subscribe and deliver, and the
// invariants (including ledger conservation over the grown population)
// must hold on the deterministic runtime.
func TestJoinWaveGrowsPopulation(t *testing.T) {
	sc, ok := ByName("join-wave")
	if !ok {
		t.Fatal("join-wave builtin missing")
	}
	var joined int
	var joinerDelivered bool
	testInspect = func(r *Run) {
		joined = len(r.peers) - sc.N
		for id := sc.N; id < len(r.peers); id++ {
			for _, evID := range r.evOrder {
				rec := r.events[evID]
				if id < len(rec.delivered) && rec.delivered[id] {
					joinerDelivered = true
				}
			}
		}
	}
	defer func() { testInspect = nil }()
	res := Execute(NewSimRuntime(sc, 11), sc, 11)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if joined != 8 {
		t.Fatalf("%d peers joined, want 8", joined)
	}
	if !joinerDelivered {
		t.Fatal("no joiner ever delivered an event")
	}
}

// TestJoinerEligibilityGrace: events published before a joiner's grace
// expires never require it; after it, a joiner is required exactly when
// the event matches its filters — the fault-aware eligibility rule for
// joiners.
func TestJoinerEligibilityGrace(t *testing.T) {
	sc := Scenario{
		Name:   "join-grace",
		N:      16,
		Rounds: 20,
		Steps: []Step{
			{Round: 6, Action: JoinNodes(2)},
		},
	}
	matched, unmatched := 0, 0
	testInspect = func(r *Run) {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, evID := range r.evOrder {
			rec := r.events[evID]
			for id := 16; id < 18; id++ {
				covered := id < len(rec.eligible) && rec.eligible[id]
				if rec.round < 6+joinGrace {
					if covered {
						t.Errorf("joiner %d eligible for round-%d event inside its grace", id, rec.round)
					}
					continue
				}
				// Nothing downs, partitions or resubscribes a joiner
				// here, so its filters are the ones it joined with.
				want := r.matchNowLocked(id, rec.ev)
				if covered != want {
					t.Errorf("joiner %d, round-%d event on %q: eligible %v, matches its filters %v",
						id, rec.round, rec.ev.Topic, covered, want)
				}
				if want {
					matched++
				} else {
					unmatched++
				}
			}
		}
	}
	defer func() { testInspect = nil }()
	res := Execute(NewSimRuntime(sc, 13), sc, 13)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if matched == 0 || unmatched == 0 {
		t.Fatalf("post-grace events: %d matched a joiner, %d did not — the test needs both", matched, unmatched)
	}
}

// TestJoinDuringAdversity: joins racing crash waves and loss must keep
// every invariant sound (joiners picked through up seeds only; a
// joiner that is itself crashed later is released like anyone else).
func TestJoinDuringAdversity(t *testing.T) {
	sc := Scenario{
		Name:        "join-storm",
		N:           20,
		Rounds:      30,
		MinDelivery: 0.97,
		Steps: []Step{
			{Round: 4, Action: Loss(0.05)},
			{Round: 6, Action: CrashFrac(0.25)},
			{Round: 8, Action: JoinNodes(5)},
			{Round: 14, Action: RejoinAll()},
			{Round: 16, Action: JoinNodes(3)},
			{Round: 20, Action: CrashFrac(0.2)},
			{Round: 24, Action: Loss(0)},
		},
	}
	res := Execute(NewSimRuntime(sc, 17), sc, 17)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if res.Published == 0 || res.Deliveries == 0 {
		t.Fatalf("degenerate run:\n%s", res.String())
	}
}

// TestJoinDuringPartition: joiners arriving mid-split must be seeded
// from the zero side (where joiners land on every runtime) — a
// cross-side seed could never answer the handshake and the joiner
// would be demanded deliveries it provably cannot receive. Runs on
// both the deterministic and the live runtime.
func TestJoinDuringPartition(t *testing.T) {
	// MinDelivery leaves slack for the hardest stochastic pair (an event
	// published at the heal round racing a mid-split joiner's overlay
	// integration) while staying far above what a stranded joiner would
	// score: missing all of its ~dozen demanded pairs lands near 0.96.
	sc := Scenario{
		Name:        "join-under-split",
		N:           24,
		Rounds:      28,
		MinDelivery: 0.98,
		Steps: []Step{
			{Round: 4, Action: SplitRandomHalf()},
			{Round: 8, Action: JoinNodes(3)},
			{Round: 18, Action: HealAll()},
		},
	}
	for _, build := range []func() Runtime{
		func() Runtime { return NewSimRuntime(sc, 19) },
		func() Runtime { return NewLiveRuntime(sc, 19) },
	} {
		res := Execute(build(), sc, 19)
		if !res.Ok() {
			t.Fatalf("%s violations:\n%s", res.Runtime, res.String())
		}
		if res.Published == 0 || res.Deliveries == 0 {
			t.Fatalf("degenerate run:\n%s", res.String())
		}
	}
}

// TestDropConservationSeesPartitionDrops: the partition scenario must
// actually drop traffic on the sim network (otherwise the conservation
// invariant is vacuous).
func TestDropConservationSeesPartitionDrops(t *testing.T) {
	sc, _ := ByName("partition-heal")
	res := Execute(NewSimRuntime(sc, 3), sc, 3)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if res.Dropped == 0 {
		t.Fatalf("partition scenario dropped nothing:\n%s", res.String())
	}
}

// TestCrashFracRoundsToNearest pins the count a frac action takes:
// frac·N rounded to nearest, so CrashFrac(0.2) on 32 up peers downs 6
// (6.4 rounds down), not ⌈6.4⌉ = 7.
func TestCrashFracRoundsToNearest(t *testing.T) {
	countDown := func(r *Run) int {
		down := 0
		for id := 0; id < r.N(); id++ {
			if !r.NodeUp(id) {
				down++
			}
		}
		return down
	}
	before, after := -1, -1
	sc := Scenario{
		Name:   "crash-count",
		Rounds: 4,
		Steps: []Step{
			{Round: 2, Action: func(r *Run) { before = countDown(r) }},
			{Round: 2, Action: CrashFrac(0.2)},
			{Round: 2, Action: func(r *Run) { after = countDown(r) }},
		},
	}
	Execute(NewSimRuntime(sc, 5), sc, 5)
	if before != 0 || after != 6 {
		t.Fatalf("CrashFrac(0.2) on 32 peers: %d down before, %d after; want 0 and 6", before, after)
	}
}

// TestRepeatedCrashFracTerminates: back-to-back over-crashing (the
// second CrashFrac(0.6) asks for more peers than are up) terminates and
// keeps the invariants sound.
func TestRepeatedCrashFracTerminates(t *testing.T) {
	sc := Scenario{
		Name:   "over-crash",
		N:      16,
		Rounds: 12,
		Steps: []Step{
			{Round: 2, Action: CrashFrac(0.6)},
			{Round: 4, Action: CrashFrac(0.6)},
		},
	}
	res := Execute(NewSimRuntime(sc, 5), sc, 5)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
}

// TestResultStringMentionsViolations: a failing invariant must surface
// in the rendered result (the CLI prints it).
func TestResultStringMentionsViolations(t *testing.T) {
	res := &Result{Scenario: "x", Runtime: "sim", Violations: []string{"eventual-delivery: boom"}}
	if res.Ok() || !strings.Contains(res.String(), "VIOLATION") {
		t.Fatalf("violation not rendered:\n%s", res.String())
	}
}

// TestByNameAndNames: the table lookup agrees with the table.
func TestByNameAndNames(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("only %d built-in scenarios, want ≥ 8", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate scenario name %q", n)
		}
		seen[n] = true
		if _, ok := ByName(n); !ok {
			t.Fatalf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName("no-such-scenario"); ok {
		t.Fatal("ByName accepted an unknown name")
	}
	// The required adversity axes are all covered.
	for _, want := range []string{"calm", "churn-waves", "partition-heal", "lossy", "flash-crowd", "sub-churn", "free-riders", "storm", "join-wave"} {
		if !seen[want] {
			t.Errorf("missing required builtin %q", want)
		}
	}
}

// TestGracefulDrainScrubsViews: the graceful-drain builtin on the live
// runtime must actually take peers down via Leave, and the settle phase
// must observe both clean views (no live view holding a leaver's
// address) and recovered delivery inside their budgets — the recorded
// rounds are what the invariants judge.
func TestGracefulDrainScrubsViews(t *testing.T) {
	sc, ok := ByName("graceful-drain")
	if !ok {
		t.Fatal("graceful-drain builtin missing")
	}
	var left int
	var recoveredAt, hygieneAt, lastFault int
	testInspect = func(r *Run) {
		for _, p := range r.peers {
			if p.everDown {
				left++
			}
		}
		recoveredAt, hygieneAt, lastFault = r.recoveredAt, r.hygieneAt, r.lastFault
	}
	defer func() { testInspect = nil }()
	res := Execute(NewLiveRuntime(sc, 3), sc, 3)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if want := 2 * 5; left != want { // two LeaveFrac(0.15) waves over N=32
		t.Errorf("%d peers left, want %d", left, want)
	}
	if lastFault != 16 {
		t.Errorf("lastFault %d, want 16 (the second leave wave)", lastFault)
	}
	if recoveredAt < 0 || hygieneAt < 0 {
		t.Fatalf("settle never observed recovery (%d) / hygiene (%d)", recoveredAt, hygieneAt)
	}
	if hygieneAt-lastFault > 2*sc.withDefaults().N {
		t.Errorf("hygiene at round %d exceeds budget from fault round %d", hygieneAt, lastFault)
	}
}

// TestCrashStormRecoveryBounded: crash-storm-recover on the
// deterministic runtime — the settle phase must record recovery inside
// the c·N budget, and clean views inside the 2·N one, both measured from
// the last fault action.
func TestCrashStormRecoveryBounded(t *testing.T) {
	sc, ok := ByName("crash-storm-recover")
	if !ok {
		t.Fatal("crash-storm-recover builtin missing")
	}
	var recoveredAt, hygieneAt, lastFault int
	testInspect = func(r *Run) { recoveredAt, hygieneAt, lastFault = r.recoveredAt, r.hygieneAt, r.lastFault }
	defer func() { testInspect = nil }()
	res := Execute(NewSimRuntime(sc, 5), sc, 5)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if lastFault != 14 {
		t.Errorf("lastFault %d, want 14 (the loss-clearing step)", lastFault)
	}
	budget := recoveryC * sc.withDefaults().N
	if recoveredAt < 0 || recoveredAt-lastFault > budget {
		t.Errorf("recovery at round %d violates budget %d from fault round %d", recoveredAt, budget, lastFault)
	}
	if hygieneAt < 0 || hygieneAt-lastFault > 2*sc.withDefaults().N {
		t.Errorf("views clean at round %d violates budget %d from fault round %d", hygieneAt, 2*sc.withDefaults().N, lastFault)
	}
}

// TestLeaveReleasesEligibility: a graceful leaver is released from
// pending eligibility exactly like a crash victim — survivors keep full
// delivery and the engine never requires the departed to deliver.
func TestLeaveReleasesEligibility(t *testing.T) {
	sc := Scenario{
		Name:   "leave-eligibility",
		N:      16,
		Rounds: 12,
		Steps: []Step{
			{Round: 3, Action: LeaveFrac(0.25)},
		},
	}
	res := Execute(NewSimRuntime(sc, 13), sc, 13)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if res.DeliveryRatio != 1 {
		t.Errorf("survivor delivery ratio %v after graceful leaves, want 1", res.DeliveryRatio)
	}
}

// TestShapedColumnCountsShaperDrops: the shaped-wan builtin on a live
// column carries real shaper loss — those drops must land in the counted
// bucket so conservation holds exactly, not approximately.
func TestShapedColumnCountsShaperDrops(t *testing.T) {
	sc, ok := ByName("shaped-wan")
	if !ok {
		t.Fatal("shaped-wan builtin missing")
	}
	res := Execute(NewLiveRuntime(sc, 9), sc, 9)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if res.Dropped == 0 {
		t.Fatalf("2%% shaper loss dropped nothing counted:\n%s", res.String())
	}
	if res.Sent != res.Recv+res.Dropped {
		t.Fatalf("shaped traffic leak: sent %d != recv %d + dropped %d", res.Sent, res.Recv, res.Dropped)
	}
}

// TestShapeLossClampsAlone: the sim column clamps each loss layer to
// [0,1] on its own before composing them, as the live columns do, so an
// out-of-range shaping loss means none. When it composed first and
// clamped after, lossy's 10% fault loss under a shaping loss of -0.5
// came to 1-(0.9)(1.5) < 0: the sim dropped nothing while live dropped
// one message in sixteen.
func TestShapeLossClampsAlone(t *testing.T) {
	sc, ok := ByName("lossy")
	if !ok {
		t.Fatal("lossy builtin missing")
	}
	want := Execute(NewSimRuntime(sc, 1), sc, 1)
	sc.Shape = &ShapeSpec{Loss: -0.5}
	got := Execute(NewSimRuntime(sc, 1), sc, 1)
	if want.Dropped == 0 || got.String() != want.String() {
		t.Fatalf("shaping loss -0.5 changed lossy:\n%s\nunshaped:\n%s", got.String(), want.String())
	}
}

// recordingRuntime is a sim column that records every shaping profile
// the engine hands it.
type recordingRuntime struct {
	*SimRuntime
	got []ShapeSpec
}

func (r *recordingRuntime) SetShape(sp ShapeSpec) {
	r.got = append(r.got, sp)
	r.SimRuntime.SetShape(sp)
}

// TestEngineFoldsFaultLossIntoShape: a column has one loss layer, its
// shaping profile, so the engine folds the schedule's fault loss into the
// profile it hands the runtime — 1-(1-fault)(1-shape), each clamped to
// [0,1] on its own — and keeps the profile's delay across a Loss step.
func TestEngineFoldsFaultLossIntoShape(t *testing.T) {
	delayed := ShapeSpec{DelayRounds: 0.2, Loss: 0.02}
	sc := Scenario{Name: "fold", N: 8, Rounds: 6, Steps: []Step{
		{Round: 1, Action: Shape(delayed)},
		{Round: 2, Action: Loss(0.10)},
		{Round: 3, Action: Shape(ShapeSpec{})},
		{Round: 4, Action: Loss(0)},
		{Round: 5, Action: Loss(1.5)},
	}}
	rt := &recordingRuntime{SimRuntime: NewSimRuntime(sc, 1)}
	Execute(rt, sc, 1)
	want := []ShapeSpec{
		{DelayRounds: 0.2, Loss: 0.02},
		{DelayRounds: 0.2, Loss: 1 - 0.9*0.98},
		{Loss: 0.10},
		{},
		{Loss: 1},
	}
	if len(rt.got) != len(want) {
		t.Fatalf("runtime was handed %d profiles, want %d: %+v", len(rt.got), len(want), rt.got)
	}
	for i, got := range rt.got {
		w := want[i]
		if math.Abs(got.Loss-w.Loss) > 1e-12 {
			t.Errorf("step %d: loss %v, want %v", i, got.Loss, w.Loss)
		}
		got.Loss, w.Loss = 0, 0
		if got != w {
			t.Errorf("step %d: profile %+v, want %+v", i, got, w)
		}
	}
}

// TestRegionalOutageReleasesEligibility: during the outage the engine
// must model the cut exactly like a partition — cross-boundary pairs
// released, intra-region delivery still required — and the runtime's
// correlated loss must be counted. Verified on the deterministic column.
func TestRegionalOutageReleasesEligibility(t *testing.T) {
	sc := Scenario{
		Name:   "outage-release",
		N:      16,
		Rounds: 16,
		Steps: []Step{
			{Round: 4, Action: RegionalOutage(2, 4)},
			{Round: 10, Action: HealAll()},
		},
	}
	testInspect = func(r *Run) {
		// After the heal the model must be reconnected again.
		if r.split {
			t.Error("run ended still split")
		}
	}
	defer func() { testInspect = nil }()
	res := Execute(NewSimRuntime(sc, 11), sc, 11)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if res.Dropped == 0 {
		t.Fatalf("outage dropped nothing:\n%s", res.String())
	}
	// Cross-boundary pairs of mid-outage events were released: with 2
	// publishes per round for 6 outage rounds there must be fewer
	// eligible pairs than a calm run of the same shape would produce.
	calm := sc
	calm.Name = "outage-release-calm"
	calm.Steps = nil
	calmRes := Execute(NewSimRuntime(calm, 11), calm, 11)
	if !calmRes.Ok() {
		t.Fatalf("calm control violations:\n%s", calmRes.String())
	}
	if res.EligiblePairs >= calmRes.EligiblePairs {
		t.Fatalf("outage released nothing: %d eligible pairs vs calm %d", res.EligiblePairs, calmRes.EligiblePairs)
	}
}

// TestShapePresets: the -shape vocabulary resolves, and unknown names
// are refused.
func TestShapePresets(t *testing.T) {
	for _, name := range ShapePresetNames() {
		sp, ok := ShapePreset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if name == "none" && sp != nil {
			t.Fatal("preset none returned a profile")
		}
		if name != "none" && *sp == (ShapeSpec{}) {
			t.Fatalf("preset %q is inert", name)
		}
	}
	if _, ok := ShapePreset("marsnet"); ok {
		t.Fatal("unknown preset accepted")
	}
}

// TestShardedSimCalmStorm runs the calm and storm builtins on the
// sharded sim column: every invariant must hold at every shard count,
// and runs must be deterministic per (seed, shards). The CI race job
// runs this sweep under -race — with the engine split across real
// goroutines, any unsynchronised cross-shard access surfaces here.
func TestShardedSimCalmStorm(t *testing.T) {
	for _, name := range []string{"calm", "storm"} {
		for _, shards := range []int{2, 4} {
			sc, ok := ByName(name)
			if !ok {
				t.Fatalf("missing builtin %q", name)
			}
			sc.Shards = shards
			t.Run(sc.Name+"-shards", func(t *testing.T) {
				a := Execute(NewSimRuntime(sc, 42), sc, 42)
				if !a.Ok() {
					t.Fatalf("shards=%d invariant violations:\n%s", shards, a.String())
				}
				if a.Published == 0 || a.Deliveries == 0 {
					t.Fatalf("shards=%d degenerate run:\n%s", shards, a.String())
				}
				b := Execute(NewSimRuntime(sc, 42), sc, 42)
				if a.String() != b.String() {
					t.Fatalf("shards=%d not deterministic:\n--- run 1\n%s--- run 2\n%s", shards, a.String(), b.String())
				}
			})
		}
	}
}

// gapRecorder is a Runtime that watches the filters the engine installs
// and removes: for every (peer, topic) it counts the live filters and
// flags the moment a topic is left with none and is subscribed again
// before any time has passed — the break-before-make window.
type gapRecorder struct {
	*SimRuntime
	now      int                // rounds stepped so far
	live     map[peerTopic]int  // filters installed per (peer, topic)
	emptied  map[peerTopic]int  // when a (peer, topic) last dropped to zero filters
	topicOf  map[peerSub]string // what each subscription id filters on
	overlaps int                // subscribes that found a filter already there
	gaps     []string           // break-before-make windows seen
}

type peerTopic struct {
	peer  int
	topic string
}

type peerSub struct {
	peer int
	sub  pubsub.SubID
}

func (g *gapRecorder) RunRounds(rounds int) {
	g.now += rounds
	g.SimRuntime.RunRounds(rounds)
}

func (g *gapRecorder) Subscribe(id int, f pubsub.Filter) (pubsub.SubID, bool) {
	sub, ok := g.SimRuntime.Subscribe(id, f)
	topic, _ := pubsub.TopicOf(f)
	k := peerTopic{id, topic}
	if at, was := g.emptied[k]; was && at == g.now && g.live[k] == 0 {
		g.gaps = append(g.gaps, fmt.Sprintf("peer %d had no filter for %s between an Unsubscribe and this Subscribe", id, topic))
	}
	if g.live[k] > 0 {
		g.overlaps++
	}
	g.live[k]++
	g.topicOf[peerSub{id, sub}] = topic
	return sub, ok
}

func (g *gapRecorder) Unsubscribe(id int, sub pubsub.SubID) bool {
	k := peerTopic{id, g.topicOf[peerSub{id, sub}]}
	g.live[k]--
	if g.live[k] == 0 {
		g.emptied[k] = g.now
	}
	return g.SimRuntime.Unsubscribe(id, sub)
}

// TestResubscribeMakesBeforeItBreaks: when a peer's redrawn interest
// set keeps a topic it already had, the engine's model sees one
// continuous match — so the runtime must never be left without a filter
// for that topic. Resubscribe used to Unsubscribe first; on the live
// columns those are two commands to the peer goroutine, and an event
// whose first copy landed between them was marked seen and never
// delivered (the sub-churn flake: "missed event … topic-000").
func TestResubscribeMakesBeforeItBreaks(t *testing.T) {
	sc, _ := ByName("sub-churn")
	g := &gapRecorder{
		SimRuntime: NewSimRuntime(sc, 1),
		live:       map[peerTopic]int{},
		emptied:    map[peerTopic]int{},
		topicOf:    map[peerSub]string{},
	}
	if res := Execute(g, sc, 1); !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if len(g.gaps) > 0 {
		t.Fatalf("%d break-before-make windows, first: %s", len(g.gaps), g.gaps[0])
	}
	if g.overlaps == 0 {
		t.Fatal("no redrawn set kept a topic: the schedule does not exercise the window")
	}
}

// falseDeliverer is a sim Runtime that, besides the real deliveries,
// hands the engine's own delivery observer two false ones when the
// schedule ends: an event the engine never published, and a real event
// at a peer that never held a filter matching it.
type falseDeliverer struct {
	*SimRuntime
	observers map[int]func(*pubsub.Event)
	filters   map[int][]pubsub.Filter // every filter each peer ever held
	real      *pubsub.Event           // a copy of the first real delivery
	unknown   pubsub.EventID
	stranger  int // the peer the real event was replayed at; -1 = none
}

func newFalseDeliverer(s *SimRuntime) *falseDeliverer {
	return &falseDeliverer{
		SimRuntime: s,
		observers:  map[int]func(*pubsub.Event){},
		filters:    map[int][]pubsub.Filter{},
		unknown:    pubsub.EventID{Publisher: 1 << 30, Seq: 7},
		stranger:   -1,
	}
}

func (d *falseDeliverer) OnDeliver(id int, fn func(*pubsub.Event)) bool {
	d.observers[id] = fn
	return d.SimRuntime.OnDeliver(id, func(ev *pubsub.Event) {
		if d.real == nil {
			cp := *ev
			d.real = &cp
		}
		fn(ev)
	})
}

func (d *falseDeliverer) Subscribe(id int, f pubsub.Filter) (pubsub.SubID, bool) {
	d.filters[id] = append(d.filters[id], f)
	return d.SimRuntime.Subscribe(id, f)
}

func (d *falseDeliverer) Settle(rounds int) {
	d.observers[0](&pubsub.Event{ID: d.unknown, Topic: "nowhere"})
	for id := 0; id < d.N(); id++ {
		if !slices.ContainsFunc(d.filters[id], func(f pubsub.Filter) bool { return f.Match(d.real) }) {
			d.observers[id](d.real)
			d.stranger = id
			break
		}
	}
	d.SimRuntime.Settle(rounds)
}

// TestFalseDeliveryDetected: the delivery observer's false-delivery
// detector, and the no-false-delivery invariant that reports it, turn
// red on both kinds of false delivery.
func TestFalseDeliveryDetected(t *testing.T) {
	sc, _ := ByName("calm")
	d := newFalseDeliverer(NewSimRuntime(sc, 1))
	res := Execute(d, sc, 1)
	if d.real == nil || d.stranger < 0 {
		t.Fatal("no real delivery to replay at a peer without a matching filter")
	}
	var got []string
	for _, v := range res.Violations {
		if strings.HasPrefix(v, "no-false-delivery: ") {
			got = append(got, v)
		}
	}
	if len(got) != 1 {
		t.Fatalf("want one no-false-delivery violation, got %q", got)
	}
	want := fmt.Sprintf("2 false deliveries (first: node 0 delivered unknown event %v)", d.unknown)
	if !strings.HasSuffix(got[0], want) {
		t.Fatalf("violation %q, want it to end %q", got[0], want)
	}
}
