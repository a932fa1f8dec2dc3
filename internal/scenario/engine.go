package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/workload"
)

// subRec is one subscription's lifetime on one node, in publishing-round
// coordinates (Warmup-time subscriptions carry from = -1).
type subRec struct {
	f    pubsub.Filter
	sub  pubsub.SubID
	from int
	to   int // -1 while active
}

// peerRec is the engine's model of one peer.
type peerRec struct {
	up, everDown, free bool
	group              int      // partition side while split (0 or 1)
	joinedAt           int      // publishing round it joined; founderJoined for founders
	subs               []subRec // every subscription it ever held
	pubSeq             uint32   // Seq of the last event it published
}

// evRec tracks one published event: who must eventually deliver it
// (eligibility shrinks as faults strike) and who actually did.
type evRec struct {
	ev        *pubsub.Event
	round     int
	publisher int
	eligible  []bool
	delivered []bool
	nEligible int
}

// Run is one scenario execution in progress. Actions receive it and
// mutate the runtime through it, so the engine's model of the cluster
// (who is up, who free-rides, which side of a partition each peer is on,
// which filters are live) stays in lockstep with the injected faults —
// that model is what invariants are judged against.
type Run struct {
	sc   Scenario
	rt   Runtime
	seed int64

	// Rng drives every schedule decision (victims, topics, publishers).
	// On the deterministic runtime, seed ⇒ schedule ⇒ result, bit for bit.
	Rng *rand.Rand

	// Round is the current publishing round, -1 during warmup.
	Round int

	// Scratch is free storage for stateful EveryRound hooks. It belongs
	// to this Run, so re-executing a Scenario value starts clean.
	Scratch any

	topics *workload.Topics
	subsOf map[string][]int // topic -> subscribed node IDs (engine view)

	mu         sync.Mutex
	peers      []peerRec // indexed by peer id; grows with JoinNode
	split      bool
	events     map[pubsub.EventID]*evRec
	evOrder    []pubsub.EventID
	published  uint64
	falseTotal uint64   // every false delivery
	falseDel   []string // descriptions of the first few

	// Engine-goroutine only, so unguarded: lastFault is written by the
	// actions, recoveredAt, hygieneAt and hygieneNote by settle(); the
	// recovery/hygiene invariants read them after the runtime quiesced.
	lastFault   int    // publishing round of the most recent fault action
	recoveredAt int    // round delivery first met the floor; -1 = never
	hygieneAt   int    // round views were first clean; -1 = never
	hygieneNote string // example offender when the hygiene budget ran out

	deliveries atomic.Uint64 // every delivery callback, incl. duplicates-by-design

	snapEarly, snapMid, snapEnd []fairness.Account
	violations                  []string
}

// founderJoined is the joinedAt sentinel for founding peers: they are
// eligible from the first round, whatever the scenario's JoinGrace.
const founderJoined = -1 << 30

// testInspect, when set by a test, observes the finished Run before the
// runtime is closed.
var testInspect func(*Run)

// Execute runs a scenario against a runtime and returns the checked
// result. The runtime must be freshly built for this scenario (peer
// count and protocol knobs matching); Execute closes it before
// returning.
func Execute(rt Runtime, sc Scenario, seed int64) *Result {
	sc = sc.withDefaults()
	n := rt.N()
	r := &Run{
		sc:     sc,
		rt:     rt,
		seed:   seed,
		Rng:    rand.New(rand.NewSource(seed ^ 0x5ce0a91)),
		Round:  -1,
		topics: workload.NewTopics(sc.Topics, 1.01),
		subsOf: make(map[string][]int, sc.Topics),
		peers:  make([]peerRec, n),
		events: make(map[pubsub.EventID]*evRec, sc.Rounds*sc.PerRound),

		recoveredAt: -1,
		hygieneAt:   -1,
	}
	for i := range r.peers {
		r.peers[i] = peerRec{up: true, joinedAt: founderJoined}
	}
	r.setup()
	rt.Start()
	rt.RunRounds(warmupRounds)

	for round := 0; round < sc.Rounds; round++ {
		r.Round = round
		for _, st := range sc.Steps {
			if st.Round == round {
				st.Action(r)
			}
		}
		if sc.EveryRound != nil {
			sc.EveryRound(r)
		}
		if round == sc.Rounds/2 {
			r.snapMid = rt.Ledger().Snapshot()
		}
		for k := 0; k < sc.PerRound; k++ {
			r.PublishRandom()
		}
		rt.RunRounds(1)
	}
	if sc.CheckRecovery || sc.CheckViewHygiene {
		r.settle()
	}
	rt.Settle(drainRounds)
	// Close before judging: on the live runtime a straggler delivery
	// could otherwise land between two reads of an invariant check.
	// Everything the checks need (ledger, traffic counters) outlives the
	// peer goroutines.
	rt.Close()
	r.snapEnd = rt.Ledger().Snapshot()

	for _, inv := range r.invariants() {
		if err := inv.check(); err != nil {
			r.violations = append(r.violations, inv.name+": "+err.Error())
		}
	}
	if testInspect != nil {
		testInspect(r)
	}
	return r.result()
}

// setup draws the heterogeneous Zipf interest sets and installs delivery
// observers, before the cluster starts.
func (r *Run) setup() {
	n := r.rt.N()
	for i := 0; i < n; i++ {
		count := workload.SubCount(r.Rng, 1, r.sc.MaxSubs)
		for _, topic := range r.topics.SampleSet(r.Rng, count) {
			r.subscribe(i, topic, -1)
		}
	}
	for i := 0; i < n; i++ {
		i := i
		r.rt.OnDeliver(i, func(ev *pubsub.Event) { r.onDeliver(i, ev) })
	}
	r.snapEarly = r.rt.Ledger().Snapshot()
}

// subscribe registers a topic filter on a node and records its lifetime.
// The engine's model is updated BEFORE the runtime call: on the live
// runtime a matching event can be delivered the instant the peer
// installs the filter, and the delivery observer must already find the
// subscription active. Callers must not hold r.mu (the live runtime
// round-trips the peer's command channel, whose handler may deliver).
func (r *Run) subscribe(id int, topic string, fromRound int) {
	f := pubsub.Topic(topic)
	r.mu.Lock()
	r.peers[id].subs = append(r.peers[id].subs, subRec{f: f, from: fromRound, to: -1})
	idx := len(r.peers[id].subs) - 1
	r.subsOf[topic] = append(r.subsOf[topic], id)
	r.mu.Unlock()
	sub, ok := r.rt.Subscribe(id, f)
	r.mu.Lock()
	if p := &r.peers[id]; ok {
		p.subs[idx].sub = sub
	} else {
		// Never took effect (invalid id): retract the record.
		p.subs = append(p.subs[:idx], p.subs[idx+1:]...)
		subs := r.subsOf[topic]
		for k, q := range subs {
			if q == id {
				r.subsOf[topic] = append(subs[:k], subs[k+1:]...)
				break
			}
		}
	}
	r.mu.Unlock()
}

// --- State the actions read and mutate ---------------------------------------

// N returns the population size.
func (r *Run) N() int { return r.rt.N() }

// Ledger exposes the runtime's fairness ledger (read-only use).
func (r *Run) Ledger() *fairness.Ledger { return r.rt.Ledger() }

// peerLocked returns id's record, or nil for an id outside the
// population. Callers hold r.mu.
func (r *Run) peerLocked(id int) *peerRec {
	if id < 0 || id >= len(r.peers) {
		return nil
	}
	return &r.peers[id]
}

// NodeUp reports whether a node is currently up in the engine's model
// (false for an id outside the population).
func (r *Run) NodeUp(id int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.peerLocked(id)
	return p != nil && p.up
}

// NodeFree reports whether a node is currently free-riding (false for
// an id outside the population).
func (r *Run) NodeFree(id int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.peerLocked(id)
	return p != nil && p.free
}

// noteFault records the current publishing round as the most recent
// fault action. The settle phase and the bounded-recovery / view-hygiene
// invariants measure their budgets from this round. Warmup-time faults
// count as round 0.
func (r *Run) noteFault() { r.lastFault = max(r.lastFault, r.Round) }

// Crash takes a node down and releases it from every pending event's
// eligibility (it can no longer be required to deliver). Events the
// victim itself published and had not yet spread are released too: on
// the live runtime a peer may be silenced before its next round tick,
// so the engine cannot require copies nobody else holds to arrive.
func (r *Run) Crash(id int) { r.down(id, r.rt.Crash) }

// Leave departs a node gracefully: the runtime hands the leaver's view
// entries to its neighbours (live/Cyclon) before silencing it. For the
// engine's delivery model a leaver is a crash — it is released from all
// pending eligibility — but for the view-hygiene invariant it is the
// best case: its neighbours were told to drop it, rather than having to
// detect the departure by probe timeouts.
func (r *Run) Leave(id int) { r.down(id, r.rt.Leave) }

// down takes a peer offline through the runtime's crash or graceful
// leave and, if the runtime did, applies the shared model updates: its
// own pending pairs are released, and so are those of every event it
// published — a silenced publisher's copies may exist nowhere else.
// Other holders may well still spread such an event; the engine just
// stops requiring it.
func (r *Run) down(id int, depart func(int) bool) {
	if !depart(id) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.noteFault()
	r.peers[id].up, r.peers[id].everDown = false, true
	r.releaseLocked(func(rec *evRec, peer int) bool { return peer == id || rec.publisher == id })
}

// releaseLocked is the one place eligibility shrinks: every pair still
// owed (eligible, not yet delivered) that drop selects stops being
// required. Peers that already delivered stay counted, and joiners are
// absent from the pair arrays of pre-join events, so neither is ever
// offered to drop. Callers hold r.mu.
func (r *Run) releaseLocked(drop func(rec *evRec, peer int) bool) {
	for _, evID := range r.evOrder {
		rec := r.events[evID]
		for i, el := range rec.eligible {
			if el && !rec.delivered[i] && drop(rec, i) {
				rec.eligible[i] = false
				rec.nEligible--
			}
		}
	}
}

// Rejoin brings a crashed node back. It is not retroactively eligible
// for events published while it was away.
func (r *Run) Rejoin(id int) {
	if !r.rt.Rejoin(id) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.noteFault()
	r.peers[id].up = true
}

// JoinNode boots one new peer into the running cluster through a
// random up, honest seed, draws it an interest set, and registers it in
// the model. The joiner is not eligible for events already published,
// nor for events published before its JoinGrace expires (its partial
// view needs a few shuffles before partner selection can reach it); a
// joiner landing during a partition starts on the zero side on both
// runtimes, so its seed must be drawn from that side too — a cross-side
// seed could never answer the handshake and would strand the joiner.
// Returns the new id, or -1 when no usable seed is available.
func (r *Run) JoinNode() int {
	r.mu.Lock()
	seeds := make([]int, 0, len(r.peers))
	for id := range r.peers {
		if p := &r.peers[id]; p.up && !p.free && (!r.split || p.group == 0) {
			seeds = append(seeds, id)
		}
	}
	r.mu.Unlock()
	if len(seeds) == 0 {
		return -1
	}
	seed := seeds[r.Rng.Intn(len(seeds))]
	id, ok := r.rt.Join(seed)
	if !ok {
		return -1
	}
	r.mu.Lock()
	// Runtime ids are dense; grow the model to cover the new peer.
	for len(r.peers) <= id {
		r.peers = append(r.peers, peerRec{up: true, joinedAt: r.Round})
	}
	r.mu.Unlock()
	// Observer before subscriptions: the first delivery a joiner can
	// legally receive is gated on a filter existing.
	r.rt.OnDeliver(id, func(ev *pubsub.Event) { r.onDeliver(id, ev) })
	count := workload.SubCount(r.Rng, 1, r.sc.MaxSubs)
	for _, topic := range r.topics.SampleSet(r.Rng, count) {
		r.subscribe(id, topic, r.Round)
	}
	return id
}

// SetFreeRider toggles free-riding. A free-rider still receives, so its
// own eligibility is untouched, but events it published and had not yet
// spread are released, as for a publisher going down (see down).
func (r *Run) SetFreeRider(id int, on bool) {
	if !r.rt.SetFreeRider(id, on) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peers[id].free = on
	if on {
		r.noteFault()
		r.releaseLocked(func(rec *evRec, _ int) bool { return rec.publisher == id })
	}
}

// Partition splits the network. Undelivered peers on the far side of any
// pending event's publisher are released from its eligibility: the
// schedule cut them off, so the protocol cannot be required to reach
// them (a conservative, sound weakening — peers that already delivered
// stay counted).
func (r *Run) Partition(side []int) {
	r.rt.Partition(side)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.noteFault()
	for i := range r.peers {
		r.peers[i].group = 0
	}
	for _, id := range side {
		if p := r.peerLocked(id); p != nil {
			p.group = 1
		}
	}
	r.split = true
	r.releaseLocked(func(rec *evRec, peer int) bool { return r.peers[peer].group != r.peers[rec.publisher].group })
}

// Heal removes the partition; events published from now on reach the
// whole population again.
func (r *Run) Heal() {
	r.rt.Heal()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.noteFault()
	r.split = false
}

// SetLoss sets the link-loss probability. Loss does not change
// eligibility — the delivery invariant's MinDelivery floor carries the
// stochastic slack instead. Any change (including clearing loss) counts
// as a fault action for the recovery clock: the budget runs from the
// moment the schedule last touched the network.
func (r *Run) SetLoss(p float64) {
	r.rt.SetLoss(p)
	r.noteFault()
}

// ShapeTo swaps the WAN shaping profile on the runtime. Like SetLoss it
// leaves delivery eligibility alone — the MinDelivery floor carries the
// stochastic slack — but counts as a fault action for the recovery and
// hygiene clocks.
func (r *Run) ShapeTo(sp ShapeSpec) {
	r.rt.SetShape(sp)
	r.noteFault()
}

// RebindPeer moves one peer to a fresh transport address and
// re-announces it. The peer stays up and keeps every delivery
// obligation — the make-before-break rebind must lose nothing — but the
// action still counts for the recovery clock.
func (r *Run) RebindPeer(id int) {
	if r.rt.Rebind(id) {
		r.noteFault()
	}
}

// Resubscribe drops all of a node's subscriptions and draws a fresh
// interest set. Pending events the node is no longer interested in are
// released from its eligibility.
func (r *Run) Resubscribe(id int) {
	// Model first, runtime second (mirroring subscribe): a delivery
	// racing the unsubscribe is legitimised by the >= comparison in
	// onDeliver, never by a stale model.
	r.mu.Lock()
	p := r.peerLocked(id)
	if p == nil {
		r.mu.Unlock()
		return
	}
	active := make([]subRec, 0, len(p.subs))
	for k := range p.subs {
		if p.subs[k].to != -1 {
			continue
		}
		p.subs[k].to = r.Round
		rec := p.subs[k]
		active = append(active, rec)
		topic, _ := pubsub.TopicOf(rec.f)
		peers := r.subsOf[topic]
		for j, p := range peers {
			if p == id {
				r.subsOf[topic] = append(peers[:j], peers[j+1:]...)
				break
			}
		}
	}
	r.mu.Unlock()
	count := workload.SubCount(r.Rng, 1, r.sc.MaxSubs)
	for _, topic := range r.topics.SampleSet(r.Rng, count) {
		r.subscribe(id, topic, r.Round)
	}
	// Make before break: the new filters go in before the old ones come
	// out. A topic in both sets (topic-000 under Zipf, most of the time)
	// is a continuous match in the model, so the runtime must never be
	// without a filter for it — on the live columns the two are separate
	// commands to the peer, and an event whose first copy lands between
	// them is marked seen, matched by nothing, and never delivered.
	// Overlapping filters deliver once: Interest.Match is a bool.
	for _, rec := range active {
		r.rt.Unsubscribe(id, rec.sub)
	}
	// Release pending events this node no longer matches.
	r.mu.Lock()
	defer r.mu.Unlock()
	r.releaseLocked(func(rec *evRec, peer int) bool { return peer == id && !r.matchNowLocked(id, rec.ev) })
}

// PublishRandom publishes one popularity-sampled event from a random
// interested (up, honest) peer — the steady workload and the flash-crowd
// builder.
func (r *Run) PublishRandom() {
	topic := r.topics.Sample(r.Rng)
	pub := r.pickPublisher(topic)
	if pub < 0 {
		return
	}
	r.publish(pub, topic)
}

// pickPublisher prefers an up, non-free-riding subscriber of the topic
// (free-riders never forward, so an event they originate would die with
// them), falling back to any up honest peer.
func (r *Run) pickPublisher(topic string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	able := func(id int) bool { return r.peers[id].up && !r.peers[id].free }
	subs := make([]int, 0, 8)
	for _, id := range r.subsOf[topic] {
		if able(id) {
			subs = append(subs, id)
		}
	}
	if len(subs) > 0 {
		return subs[r.Rng.Intn(len(subs))]
	}
	all := make([]int, 0, len(r.peers))
	for id := range r.peers {
		if able(id) {
			all = append(all, id)
		}
	}
	if len(all) == 0 {
		return -1
	}
	return all[r.Rng.Intn(len(all))]
}

// publish originates one event and registers its eligibility: every up
// peer interested right now and (under a partition) on the publisher's
// side must eventually deliver it.
func (r *Run) publish(pub int, topic string) {
	r.mu.Lock()
	r.peers[pub].pubSeq++
	ev := &pubsub.Event{
		ID:      pubsub.EventID{Publisher: uint32(pub), Seq: r.peers[pub].pubSeq},
		Topic:   topic,
		Payload: make([]byte, payloadBytes),
	}
	rec := &evRec{
		ev:        ev,
		round:     r.Round,
		publisher: pub,
		eligible:  make([]bool, len(r.peers)),
		delivered: make([]bool, len(r.peers)),
	}
	for i := range r.peers {
		if p := &r.peers[i]; p.up && r.Round >= p.joinedAt+r.sc.JoinGrace &&
			(!r.split || p.group == r.peers[pub].group) && r.matchNowLocked(i, ev) {
			rec.eligible[i] = true
			rec.nEligible++
		}
	}
	r.events[ev.ID] = rec
	r.evOrder = append(r.evOrder, ev.ID)
	r.published++
	r.mu.Unlock()

	// Publish after registering, so the publisher's own synchronous
	// self-delivery finds the record.
	r.rt.Publish(pub, topic, nil, ev.Payload)
}

// matchNowLocked reports whether node id's currently-active filters
// match ev. Callers hold r.mu.
func (r *Run) matchNowLocked(id int, ev *pubsub.Event) bool {
	for _, rec := range r.peers[id].subs {
		if rec.to == -1 && rec.f.Match(ev) {
			return true
		}
	}
	return false
}

// onDeliver is the delivery observer installed on every peer. It runs on
// the simulator goroutine (sim) or the peer's goroutine (live). The
// no-false-delivery invariant is enforced here, during the run: the
// event must match a filter the node held at or after publish time.
func (r *Run) onDeliver(id int, ev *pubsub.Event) {
	r.deliveries.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.events[ev.ID]
	if !ok {
		r.recordFalse(fmt.Sprintf("node %d delivered unknown event %v", id, ev.ID))
		return
	}
	// A filter removed in round R still legitimises deliveries of events
	// published in round ≤ R: on the live runtime a matching copy can be
	// in flight (or mid-callback) while the engine unsubscribes, so the
	// comparison is >=, not >.
	matched := false
	for _, sr := range r.peers[id].subs {
		if (sr.to == -1 || sr.to >= rec.round) && sr.f.Match(ev) {
			matched = true
			break
		}
	}
	if !matched {
		r.recordFalse(fmt.Sprintf("node %d delivered %q without a matching filter", id, ev.Topic))
	}
	// A joiner can legally deliver an event published before it joined
	// (old copies still circulate in buffers); the pair arrays of such
	// events predate it, so there is nothing to mark.
	if id < len(rec.delivered) {
		rec.delivered[id] = true
	}
}

func (r *Run) recordFalse(desc string) {
	r.falseTotal++
	if len(r.falseDel) < 8 {
		r.falseDel = append(r.falseDel, desc)
	}
}

// pairTotalsLocked walks every event once and returns the
// eligible/delivered pair totals plus a description of the first miss.
// It is the single source the eventual-delivery invariant and the
// result metrics both consume. Callers hold r.mu.
func (r *Run) pairTotalsLocked() (eligible, delivered int, firstMiss string) {
	for _, evID := range r.evOrder {
		rec := r.events[evID]
		eligible += rec.nEligible
		for i, el := range rec.eligible {
			if !el {
				continue
			}
			if rec.delivered[i] {
				delivered++
			} else if firstMiss == "" {
				firstMiss = fmt.Sprintf("node %d missed event %v (round %d, topic %q)",
					i, evID, rec.round, rec.ev.Topic)
			}
		}
	}
	return eligible, delivered, firstMiss
}

// --- Settle phase ------------------------------------------------------------

// settle runs extra rounds after the publishing schedule until the
// recovery and hygiene conditions are met or their budgets (measured
// from the last fault action) are exhausted. It records WHEN each
// condition was first observed; the invariants judge the recorded
// rounds against the budgets afterwards. The loop only steps the
// runtime and reads model state, so on the deterministic runtime the
// settle phase is part of the reproducible schedule.
func (r *Run) settle() {
	lastFault := r.lastFault
	recovered, clean := !r.sc.CheckRecovery, !r.sc.CheckViewHygiene
	recDeadline, hygDeadline := lastFault+r.recoveryBudget(), lastFault+r.hygieneBudget()
	// round counts rounds elapsed: the publishing phase just ended.
	for round := r.sc.Rounds; ; round++ {
		if !recovered && r.recoveryMet() {
			recovered, r.recoveredAt = true, round
		}
		if !clean && r.hygieneOffender() == "" {
			clean, r.hygieneAt = true, round
		}
		if (recovered || round >= recDeadline) && (clean || round >= hygDeadline) {
			if !clean {
				r.hygieneNote = r.hygieneOffender()
			}
			return
		}
		r.rt.RunRounds(1)
	}
}

// recoveryBudget is the bounded-recovery budget in rounds after the last
// fault, over the current population (joiners count).
func (r *Run) recoveryBudget() int { return recoveryC * r.N() }

// hygieneBudget is the view-hygiene budget in rounds after the last
// fault, over the founding population.
func (r *Run) hygieneBudget() int { return 2 * r.sc.N }

// recoveryMet reports whether delivery has reached the scenario's
// MinDelivery floor over the pairs eligible right now.
func (r *Run) recoveryMet() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	eligible, delivered, _ := r.pairTotalsLocked()
	return float64(delivered) >= r.sc.MinDelivery*float64(eligible)
}

// hygieneOffender returns a description of one live peer whose
// membership view still holds the address of a down peer, or "" when
// every live view is clean.
func (r *Run) hygieneOffender() string {
	views := r.rt.Views()
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, view := range views {
		if id >= len(r.peers) || !r.peers[id].up {
			continue
		}
		for _, q := range view {
			if p := r.peerLocked(q); p != nil && !p.up {
				return fmt.Sprintf("live peer %d still holds dead address %d", id, q)
			}
		}
	}
	return ""
}

// --- Result ------------------------------------------------------------------

// Result is the outcome of one scenario execution: workload counts, the
// invariant metrics, and any violations (empty Violations = pass).
type Result struct {
	Scenario string
	Runtime  string
	Seed     int64

	Published       uint64
	Deliveries      uint64
	EligiblePairs   int
	DeliveredPairs  int
	DeliveryRatio   float64
	FalseDeliveries int
	Sent, Recv      uint64
	Dropped         uint64
	JainEarly       float64
	JainLate        float64
	HasFairness     bool

	// RecoveredAfter and CleanAfter are the rounds from the last fault
	// action to the settle phase (which starts when publishing ends)
	// first seeing delivery back at the floor and every live view clean,
	// each with the budget it is judged against: zero when the scenario
	// does not check it or the settle phase never saw it (a violation).
	RecoveredAfter, RecoveryBudget int
	CleanAfter, HygieneBudget      int

	Violations []string
}

// Ok reports whether every invariant held.
func (res *Result) Ok() bool { return len(res.Violations) == 0 }

// String renders the result deterministically (stable key order, %g
// floats): on the simulated runtime two runs with one seed must produce
// byte-identical strings.
func (res *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s runtime=%s seed=%d\n", res.Scenario, res.Runtime, res.Seed)
	fmt.Fprintf(&b, "  published          %d\n", res.Published)
	fmt.Fprintf(&b, "  deliveries         %d\n", res.Deliveries)
	fmt.Fprintf(&b, "  eligible pairs     %d\n", res.EligiblePairs)
	fmt.Fprintf(&b, "  delivered pairs    %d\n", res.DeliveredPairs)
	fmt.Fprintf(&b, "  delivery ratio     %g\n", res.DeliveryRatio)
	fmt.Fprintf(&b, "  false deliveries   %d\n", res.FalseDeliveries)
	fmt.Fprintf(&b, "  msgs sent          %d\n", res.Sent)
	fmt.Fprintf(&b, "  msgs received      %d\n", res.Recv)
	fmt.Fprintf(&b, "  msgs dropped       %d\n", res.Dropped)
	if res.HasFairness {
		fmt.Fprintf(&b, "  jain early->late   %g -> %g\n", res.JainEarly, res.JainLate)
	}
	if res.RecoveryBudget > 0 {
		fmt.Fprintf(&b, "  recovered after    %d rounds (budget %d·N = %d)\n", res.RecoveredAfter, recoveryC, res.RecoveryBudget)
	}
	if res.HygieneBudget > 0 {
		fmt.Fprintf(&b, "  views clean after  %d rounds (budget 2·N = %d)\n", res.CleanAfter, res.HygieneBudget)
	}
	if len(res.Violations) == 0 {
		b.WriteString("  invariants         all passing\n")
	} else {
		for _, v := range res.Violations {
			fmt.Fprintf(&b, "  VIOLATION          %s\n", v)
		}
	}
	return b.String()
}

func (r *Run) result() *Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	res := &Result{
		Scenario:        r.sc.Name,
		Runtime:         r.rt.Name(),
		Seed:            r.seed,
		Published:       r.published,
		Deliveries:      r.deliveries.Load(),
		FalseDeliveries: int(r.falseTotal),
		Violations:      append([]string(nil), r.violations...),
	}
	res.EligiblePairs, res.DeliveredPairs, _ = r.pairTotalsLocked()
	if res.EligiblePairs > 0 {
		res.DeliveryRatio = float64(res.DeliveredPairs) / float64(res.EligiblePairs)
	} else {
		res.DeliveryRatio = 1
	}
	res.Sent, res.Recv, res.Dropped = r.rt.Traffic()
	if r.sc.TargetRatio > 0 {
		res.JainEarly, res.JainLate = r.fairnessWindowsLocked()
		res.HasFairness = true
	}
	if r.recoveredAt >= 0 {
		res.RecoveredAfter, res.RecoveryBudget = r.recoveredAt-r.lastFault, r.recoveryBudget()
	}
	if r.hygieneAt >= 0 {
		res.CleanAfter, res.HygieneBudget = r.hygieneAt-r.lastFault, r.hygieneBudget()
	}
	return res
}

// fairnessWindowsLocked computes the windowed Jain index over
// never-crashed, never-free-riding peers for the first and second half
// of the publishing phase.
func (r *Run) fairnessWindowsLocked() (early, late float64) {
	stable := make([]int, 0, len(r.peers))
	for i, p := range r.peers {
		if !p.everDown && !p.free {
			stable = append(stable, i)
		}
	}
	sort.Ints(stable)
	w := r.rt.Ledger().Weights()
	window := func(from, to []fairness.Account) float64 {
		accts := make([]fairness.Account, 0, len(stable))
		for _, i := range stable {
			if i < len(from) && i < len(to) {
				accts = append(accts, fairness.Delta(to[i], from[i]))
			}
		}
		return fairness.ReportAccounts(accts, w).RatioJain
	}
	return window(r.snapEarly, r.snapMid), window(r.snapMid, r.snapEnd)
}
