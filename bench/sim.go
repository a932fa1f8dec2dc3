package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"fairgossip/internal/adaptive"
	"fairgossip/internal/core"
	"fairgossip/internal/eventsim"
	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/stats"
)

// simSpec sizes one simulator workload. Everything the cluster is fed —
// subscriptions, the publish schedule, the cluster seed — is generated
// from the run's seed by the harness; the spec fixes only shapes.
type simSpec struct {
	n       int
	sharded bool // core.NewShardedCluster with shards = GOMAXPROCS
	cfg     core.Config
	net     simnet.Config

	topics         int // 0: every node subscribes MatchAll
	zipf           float64
	subMin, subMax int
	pubsPerRound   int
	payload        int

	warmRounds  int // untimed rounds before the first block
	drainRounds int // rounds run after the count window before the audit
	blockRounds int // rounds per timed block
	countBlocks int // blocks in the fixed count window (and the minimum run)
	fpRounds    int // rounds into a replay at which its fingerprint is taken
	maxRounds   int // hard cap on rounds, which sizes the delivery bitsets
	setups      int // constructions per run (the last one is measured in full)
	latSample   int // record latency on every latSample-th node
	minDeliver  float64
}

// The contract wants workloads on which no operation fails, and push
// gossip only delivers with a probability. A node misses an event when
// none of the copies sent reach it; how many do is set by the copies
// each sender makes (fanout x batch / publishes a round) and by how
// many senders hold the node in their view. Both simulator specs are
// sized so that the expected misses of a run stay below 1e-6 (README,
// "No failed operations").

func simFairSpec(toy bool) simSpec {
	n := 2000
	if toy {
		n = 64
	}
	spec := simSpec{
		n: n,
		cfg: core.Config{
			Mode:         core.ModeContent,
			Fanout:       int(math.Ceil(math.Log(float64(n)))) + 1,
			Batch:        8,
			Policy:       gossip.PolicyLeastSent,
			BufferMaxAge: 16,
			// Views of 32, not Cyclon's default 16: a node's in-degree spreads
			// like a Poisson variable around the view size, and at 16 the few
			// nodes that five or fewer peers know of are the ones that miss
			// events.
			ViewCap:    32,
			Controller: core.ControllerSpec{Kind: core.ControllerAIMD, Lever: adaptive.LeverBoth, TargetRatio: 8000},
			// DefaultLimits(n) but for BatchMin, 1 there: a node throttled to one
			// event a round sends each event once, too few copies for every
			// subscriber to get one.
			Limits: adaptive.Limits{FanoutMin: 8, FanoutMax: 32, BatchMin: 4, BatchMax: 64},
		},
		net:    simnet.Config{Latency: simnet.UniformLatency(5*time.Millisecond, 50*time.Millisecond), Loss: 0.02},
		topics: 64, zipf: 1.01, subMin: 1, subMax: 16,
		pubsPerRound: 1, payload: 64,
		// 100 warm-up rounds: the bootstrap views are uniform draws, and it
		// takes Cyclon some twenty shuffles a node to even the in-degrees out.
		warmRounds: 100, blockRounds: 20, countBlocks: 6, drainRounds: 24, // 16 in the buffers + 5 to reach everyone
		fpRounds: 10, maxRounds: 2048, setups: 9, latSample: 1,
		minDeliver: 0.99,
	}
	if toy {
		spec.cfg.Limits.FanoutMin = 4
		spec.warmRounds, spec.blockRounds, spec.countBlocks, spec.fpRounds = 4, 4, 2, 2
	}
	return spec
}

func simHugeSpec(toy bool) simSpec {
	spec := simSpec{
		n:       100000,
		sharded: true,
		cfg: core.Config{
			Mode:        core.ModeContent,
			Membership:  core.MemberFull,
			Fanout:      4,
			Batch:       8,
			Policy:      gossip.PolicyLeastSent,
			BufferCap:   32,
			SeenCap:     64,
			BatchRounds: true,
		},
		// One publish a round: an event then rides in every batch of its 8
		// rounds of life and each node sends 32 copies of it. At two a round
		// it was 16, and 4 deliveries in a million failed.
		pubsPerRound: 1, payload: 16,
		warmRounds: 10, blockRounds: 2, countBlocks: 5, drainRounds: 24, // 8 in the buffers + 12 to reach everyone
		fpRounds: 2, maxRounds: 256, setups: 3, latSample: 16,
		minDeliver: 0.97,
	}
	if toy {
		spec.n, spec.countBlocks = 2000, 2
	}
	return spec
}

// simRig is the one view the harness has of either simulator kernel.
type simRig struct {
	nodes   []*core.Node
	ledger  *fairness.Ledger
	run     func(rounds int)
	settle  func() // stop the tickers and deliver everything in flight
	traffic func() simnet.Traffic
	sim     *eventsim.Sim // nil on the sharded kernel, which hides its kernels
	shards  int
}

// ledgerTotals sums the accounts the harness needs in one pass.
type ledgerTotals struct {
	appBytes, infraBytes, appMsgs, infraMsgs float64
	useful, junk, delivered, published       float64
}

func sumLedger(l *fairness.Ledger) ledgerTotals {
	var t ledgerTotals
	for i, n := 0, l.Len(); i < n; i++ {
		a := l.Account(i)
		t.appBytes += float64(a.BytesSent[fairness.ClassApp])
		t.infraBytes += float64(a.BytesSent[fairness.ClassInfra])
		t.appMsgs += float64(a.MsgsSent[fairness.ClassApp])
		t.infraMsgs += float64(a.MsgsSent[fairness.ClassInfra])
		t.useful += float64(a.UsefulBytes)
		t.junk += float64(a.JunkBytes)
		t.delivered += float64(a.Delivered)
		t.published += float64(a.Published)
	}
	return t
}

func (a ledgerTotals) sub(b ledgerTotals) ledgerTotals {
	return ledgerTotals{
		a.appBytes - b.appBytes, a.infraBytes - b.infraBytes, a.appMsgs - b.appMsgs, a.infraMsgs - b.infraMsgs,
		a.useful - b.useful, a.junk - b.junk, a.delivered - b.delivered, a.published - b.published,
	}
}

// fingerprint is every count a replay has produced by its fpRounds-th
// round; two replays of one seed must agree on it bit for bit.
type fingerprint struct {
	traffic simnet.Traffic
	ledger  ledgerTotals
}

// simReplay is one cluster driven from construction to drain.
type simReplay struct {
	spec   simSpec
	in     topicInputs
	sched  *schedule
	rig    simRig
	tr     *tracer
	pubRNG *rand.Rand

	round      int           // rounds run so far
	events     int           // events published so far
	winLo      int           // first event index of the count window
	winHi      int           // one past its last
	logs       []deliveryLog // per node
	checks     checks
	latMS      []float64 // sim-time latencies in the count window (unsharded)
	latHist    []uint32  // per sampled node × round latency (sharded)
	pubUS      []float64 // wall cost of each Publish call
	eventTopic []uint8   // topic index of each event, in publish order

	setup, newCluster, subscribe time.Duration
	fp                           fingerprint
}

const latRoundsCap = 64

func buildSim(spec simSpec, in topicInputs, seed int64, procs int, tr *tracer) *simReplay {
	rp := &simReplay{spec: spec, in: in, tr: tr, pubRNG: rand.New(rand.NewSource(seed ^ 0x70756273))}
	if spec.topics > 0 {
		// One cycle of the schedule is the count window's events.
		rp.sched = newSchedule(in, spec.countBlocks*spec.blockRounds*spec.pubsPerRound, spec.warmRounds*spec.pubsPerRound, rp.pubRNG)
	}
	t0 := time.Now()
	opts := core.ClusterOptions{Seed: seed, NetConfig: spec.net}
	id := tr.begin("setup/new_cluster")
	if spec.sharded {
		sc := core.NewShardedCluster(spec.n, procs, spec.cfg, opts)
		rp.rig = simRig{nodes: sc.Nodes, ledger: sc.Ledger, run: sc.RunRounds, traffic: sc.TotalTraffic,
			settle: func() { sc.Stop(); sc.Drain() }, shards: sc.Shards()}
	} else {
		c := core.NewCluster(spec.n, spec.cfg, opts)
		rp.rig = simRig{nodes: c.Nodes, ledger: c.Ledger, run: c.RunRounds, traffic: c.Net.TotalTraffic,
			settle: func() { c.Stop(); c.Sim.Run() }, sim: c.Sim, shards: 1}
	}
	tr.end(id)
	rp.newCluster = time.Since(t0)

	id = tr.begin("setup/subscribe")
	words := (spec.maxRounds*spec.pubsPerRound + 63) / 64
	bits := make([]uint64, spec.n*words)
	rp.logs = make([]deliveryLog, spec.n)
	if rp.rig.sim == nil {
		rp.latHist = make([]uint32, (spec.n/spec.latSample+1)*latRoundsCap)
	} else {
		rp.latMS = make([]float64, 0, 1<<17)
	}
	for i, nd := range rp.rig.nodes {
		rp.logs[i] = deliveryLog{mask: math.MaxUint64, got: bits[i*words : (i+1)*words]}
		if spec.topics == 0 {
			nd.Subscribe(pubsub.MatchAll())
		} else {
			rp.logs[i].mask = in.mask[i]
			for t, name := range in.names {
				if in.mask[i]>>uint(t)&1 == 1 {
					nd.Subscribe(pubsub.Topic(name))
				}
			}
		}
		nd.OnDeliver = rp.observer(i)
	}
	tr.end(id)
	rp.subscribe = time.Since(t0) - rp.newCluster
	rp.setup = time.Since(t0)
	rp.winLo = spec.warmRounds * spec.pubsPerRound
	rp.winHi = rp.winLo + spec.countBlocks*spec.blockRounds*spec.pubsPerRound
	return rp
}

// observer is node i's delivery callback. On the sharded kernel it runs
// on the owning shard's goroutine, so it writes only node i's slots.
func (rp *simReplay) observer(i int) func(*pubsub.Event) {
	log := &rp.logs[i]
	sampled := i%rp.spec.latSample == 0
	var hist []uint32
	if rp.latHist != nil && sampled {
		s := i / rp.spec.latSample
		hist = rp.latHist[s*latRoundsCap : (s+1)*latRoundsCap]
	}
	return func(ev *pubsub.Event) {
		idx, stamp := log.record(ev.Payload, &rp.checks)
		if idx < rp.winLo || idx >= rp.winHi || !sampled {
			return
		}
		if hist != nil {
			// A delivery during round r of an event published before round
			// s ran took (r-s-1, r-s] rounds; bucket k holds (k, k+1]. The
			// publisher's own delivery happens at publish time, in bucket 0.
			if k := max(int64(rp.round)-stamp-1, 0); k < latRoundsCap {
				hist[k]++
			}
			return
		}
		rp.latMS = append(rp.latMS, float64(int64(rp.rig.sim.Now())-stamp)/1e6)
	}
}

// publishRound issues one round's publications: a Zipf-drawn topic from
// one of its subscribers (any node when everyone matches everything).
func (rp *simReplay) publishRound() {
	for k := 0; k < rp.spec.pubsPerRound; k++ {
		topic, t, from := "feed", 0, 0
		if rp.sched != nil {
			t = rp.sched.next()
			topic = rp.in.names[t]
			from = int(rp.in.members[t][rp.pubRNG.Intn(len(rp.in.members[t]))])
		} else {
			from = rp.pubRNG.Intn(rp.spec.n)
		}
		stamp := int64(rp.round)
		if rp.rig.sim != nil {
			stamp = int64(rp.rig.sim.Now())
		}
		p := newPayload(rp.spec.payload, rp.events, t, stamp)
		rp.events++
		rp.eventTopic = append(rp.eventTopic, uint8(t))
		id := rp.tr.begin("publish")
		t0 := time.Now()
		rp.rig.nodes[from].Publish(topic, nil, p)
		rp.pubUS = append(rp.pubUS, float64(time.Since(t0))/1e3)
		rp.tr.end(id)
	}
}

// step runs one round: publish (unless draining), then advance the clock.
func (rp *simReplay) step(publish bool) time.Duration {
	if publish {
		rp.publishRound()
	}
	id := rp.tr.begin("run_rounds")
	t0 := time.Now()
	rp.round++ // deliveries inside the window belong to the round being run
	rp.rig.run(1)
	d := time.Since(t0)
	rp.tr.end(id)
	if rp.round == rp.spec.fpRounds {
		rp.fp = fingerprint{rp.rig.traffic(), sumLedger(rp.rig.ledger)}
	}
	return d
}

// block is one timed slice of a run.
type block struct {
	wall, cpu  time.Duration
	deliveries float64
	traced     bool
}

func (b block) cpuUSPerDelivery() float64 { return ratio(float64(b.cpu)/1e3, b.deliveries) }
func (b block) deliveriesPerS() float64   { return ratio(b.deliveries, b.wall.Seconds()) }

// runSim runs one simulator workload: setups-1 short replays (set-up
// plus fpRounds rounds, for the set-up median and the determinism
// check), then the measured replay.
func runSim(rc *runCtx, spec simSpec) (*result, error) {
	res := newResult()
	var in topicInputs
	if spec.topics > 0 {
		in = genTopicInputs(spec.n, spec.topics, spec.zipf, spec.subMin, spec.subMax, 0, rc.seed)
	}
	if rc.tr != nil {
		rc.tr.on = true
	}

	var setups setupSamples
	var fps []fingerprint
	phase := phaseClock{t: time.Now(), s: map[string]float64{}}
	note := func(rp *simReplay) {
		setups.add(rp.setup, rp.newCluster, rp.subscribe)
		fps = append(fps, rp.fp)
	}
	for s := 0; s < spec.setups-1; s++ {
		rc.setRun(fmt.Sprintf("replay%d", s))
		rp := buildSim(spec, in, rc.seed, rc.procs, rc.tr)
		id := rc.tr.begin("warmup")
		for rp.round < spec.fpRounds {
			rp.step(true)
		}
		rc.tr.end(id)
		note(rp)
		rp = nil
		runtime.GC()
	}

	phase.mark("short_replays")
	rc.setRun("measured")
	rp := buildSim(spec, in, rc.seed, rc.procs, rc.tr)
	id := rc.tr.begin("warmup")
	for rp.round < spec.warmRounds {
		rp.step(true)
	}
	rc.tr.end(id)
	note(rp)
	runtime.GC()
	phase.mark("setup_and_warmup")

	// Timed blocks. The first countBlocks form the count window, whose
	// length in rounds is fixed, so every count and sim-time figure is a
	// function of the seed alone; time figures are medians over however
	// many blocks --seconds allows.
	var (
		blocks    []block
		roundMS   []float64
		winStart  = sumLedger(rp.rig.ledger)
		trafStart = rp.rig.traffic()
		allocs0   = mallocsNow()
		winEnd    ledgerTotals
		allocs1   uint64
		stepsLo   uint64
		rep       fairness.Report
		reportMS  float64
		rssMB     float64
		pendSum   float64
		deadline  = time.Now().Add(rc.seconds)
		env0      = takeEnv()
	)
	if rp.rig.sim != nil {
		stepsLo = rp.rig.sim.Steps()
	}
	delivered := winStart.delivered
	maxAge := spec.cfg.BufferMaxAge
	if maxAge == 0 {
		maxAge = 8 // core's default
	}
	for b := 0; ; b++ {
		traced := rc.traceBlock(b)
		bid := rc.tr.begin(fmt.Sprintf("block[%d]", b))
		w0, c0 := time.Now(), cpuNow()
		for r := 0; r < spec.blockRounds; r++ {
			roundMS = append(roundMS, float64(rp.step(true))/1e6)
			if rp.rig.sim != nil {
				pendSum += float64(rp.rig.sim.Pending())
			}
		}
		bl := block{wall: time.Since(w0), cpu: cpuNow() - c0, traced: traced}
		rc.tr.end(bid)
		rc.endTraceBlock()
		led := sumLedger(rp.rig.ledger)
		bl.deliveries, delivered = led.delivered-delivered, led.delivered
		blocks = append(blocks, bl)
		rc.tr.count(fmt.Sprintf("block[%d]", b), map[string]float64{
			"deliveries": bl.deliveries, "cpu_ns": float64(bl.cpu), "wall_ns": float64(bl.wall),
			"msgs_sent": float64(rp.rig.traffic().MsgsSent), "mallocs": float64(mallocsNow()),
		})
		if len(blocks) == spec.countBlocks {
			// The count window closes here, between two timed blocks; the
			// fairness report is taken now so that it, too, depends on the
			// seed and not on how many more blocks this machine fits in.
			winEnd, allocs1, rssMB = led, mallocsNow(), peakRSSMB()
			id := rc.tr.begin("report")
			t0 := time.Now()
			rep = rp.rig.ledger.Report()
			reportMS = float64(time.Since(t0)) / 1e6
			rc.tr.end(id)
		}
		if len(blocks) >= spec.countBlocks && (!time.Now().Before(deadline) || rp.round+spec.blockRounds+spec.drainRounds > spec.maxRounds) {
			break
		}
	}
	phase.mark("timed")
	timedRounds := len(blocks) * spec.blockRounds
	env1 := takeEnv()
	var stepsHi uint64
	if rp.rig.sim != nil {
		stepsHi = rp.rig.sim.Steps()
	}
	trafTimed := rp.rig.traffic()
	ledTimed := sumLedger(rp.rig.ledger)

	// Drain: publish-free rounds until every event of the count window is
	// out of every buffer (the rounds it takes to reach the last node plus
	// BufferMaxAge), counting the timed rounds already run past the window.
	// The count metrics then do not depend on how many blocks the machine
	// fitted into --seconds.
	id = rc.tr.begin("drain")
	for r := timedRounds - spec.countBlocks*spec.blockRounds; r < spec.drainRounds; r++ {
		rp.step(false)
	}
	rp.rig.settle()
	rc.tr.end(id)
	traf := rp.rig.traffic()
	phase.mark("drain")

	// --- outputs ---
	win := winEnd.sub(winStart)
	res.attempted, res.failed = rp.audit()
	var rps, cpuRound []float64
	var tracedCPU, plainCPU []float64
	var wallSum, cpuSum time.Duration
	for _, b := range blocks {
		rps = append(rps, ratio(float64(spec.blockRounds), b.wall.Seconds()))
		cpuRound = append(cpuRound, float64(b.cpu)/1e3/float64(spec.blockRounds))
		wallSum += b.wall
		cpuSum += b.cpu
		if b.traced {
			tracedCPU = append(tracedCPU, b.cpuUSPerDelivery())
		} else {
			plainCPU = append(plainCPU, b.cpuUSPerDelivery())
		}
	}
	p50, p99, samples := rp.latency()
	setups.into(res)
	// A block's deliveries depend on which topics fell into it; its CPU
	// and wall time hardly do (every node forwards every event). So the
	// timed part of both figures is the block median per round, and the
	// deliveries a round makes come from the count window, where they are
	// exact: the block-to-block scatter is then the machine's alone.
	perRound := win.delivered / float64(spec.countBlocks*spec.blockRounds)
	res.layer["proc.deliveries_per_s"] = median(rps) * perRound
	res.layer["proc.cpu_us_per_delivery"] = median(cpuRound) / perRound
	res.e2e["allocs_per_delivery"] = ratio(float64(allocs1-allocs0), win.delivered)
	res.e2e["peak_rss_mb"] = rssMB // the high-water mark when the count window closed: later blocks only grow the dedup sets
	res.e2e["deliver_ms_p50"] = p50
	res.e2e["deliver_ms_p99"] = p99
	res.e2e["wire_bytes_per_delivery"] = ratio(win.appBytes+win.infraBytes, win.delivered)
	res.e2e["ratio_jain"] = rep.RatioJain
	res.raw["core.sim_rounds_per_s"] = rps
	for i := range rps {
		res.raw["proc.deliveries_per_s"] = append(res.raw["proc.deliveries_per_s"], rps[i]*perRound)
		res.raw["proc.cpu_us_per_delivery"] = append(res.raw["proc.cpu_us_per_delivery"], cpuRound[i]/perRound)
	}
	res.info["wall_s_by_phase"] = phase.s
	res.info["latency_samples"] = samples
	res.info["latency_clock"] = "sim"
	res.info["blocks"] = len(blocks)
	res.info["block_rounds"] = spec.blockRounds
	res.info["count_window_rounds"] = spec.countBlocks * spec.blockRounds
	res.info["shards"] = rp.rig.shards
	res.info["n"] = spec.n
	res.info["delivered_in_count_window"] = win.delivered

	res.checkDeliveries(&rp.checks, spec.minDeliver)
	res.check("MsgsSent == MsgsRecv + Dropped after drain", traf.MsgsSent == traf.MsgsRecv+traf.Dropped,
		fmt.Sprintf("sent %d recv %d dropped %d", traf.MsgsSent, traf.MsgsRecv, traf.Dropped))
	same := true
	for _, fp := range fps[1:] {
		same = same && fp == fps[0]
	}
	res.check("replays of the seed agree bit for bit", same, fmt.Sprintf("%d replays at round %d", len(fps), spec.fpRounds))

	if !rc.traced {
		return res, nil
	}

	// --- per-layer counters over the timed window ---
	timed := ledTimed.sub(winStart)
	msgs := float64(trafTimed.MsgsSent - trafStart.MsgsSent)
	recv := float64(trafTimed.MsgsRecv - trafStart.MsgsRecv)
	L := res.layer
	L["core.sim_rounds_per_s"] = median(rps)
	L["core.round_ms_p50"] = median(roundMS)
	L["core.round_ms_max"] = stats.Quantile(roundMS, 1)
	L["core.publish_us"] = median(rp.pubUS)
	L["core.parallel_eff"] = ratio(cpuSum.Seconds(), wallSum.Seconds()*float64(rp.rig.shards))
	if rp.rig.sim != nil {
		L["eventsim.events_per_round"] = float64(stepsHi-stepsLo) / float64(timedRounds)
		L["eventsim.pending_depth"] = pendSum / float64(timedRounds)
	}
	L["simnet.msgs_per_round"] = msgs / float64(timedRounds)
	L["simnet.dropped_frac"] = ratio(float64(trafTimed.Dropped-trafStart.Dropped), msgs)
	L["fairness.report_ms"] = reportMS
	L["gossip.useful_byte_frac"] = ratio(timed.useful, timed.useful+timed.junk)
	L["gossip.sends_per_delivery"] = ratio(timed.appMsgs, timed.delivered)
	L["membership.infra_byte_frac"] = ratio(timed.infraBytes, timed.appBytes+timed.infraBytes)
	var fan, bat float64
	for _, nd := range rp.rig.nodes {
		fan += float64(nd.Fanout())
		bat += float64(nd.Batch())
	}
	L["adaptive.fanout_mean"] = fan / float64(spec.n)
	L["adaptive.batch_mean"] = bat / float64(spec.n)
	L["trace.overhead_frac"] = ratio(median(tracedCPU), median(plainCPU)) - 1
	envLayer(L, env0, env1, cpuSum)

	// --- probes: each layer's public functions in isolation, on inputs
	// shaped like this workload's ---
	viewCap := spec.cfg.ViewCap
	if viewCap == 0 {
		viewCap = 16 // core's default
	}
	shape := probeShape{
		n: spec.n, viewCap: viewCap, shuffleLen: 8, bufferCap: 256, maxAge: maxAge, seenCap: 8192,
		policy: spec.cfg.Policy, batch: int(math.Round(L["adaptive.batch_mean"])), fanout: int(math.Round(L["adaptive.fanout_mean"])),
		payload: spec.payload, arrivals: spec.pubsPerRound,
		topics: spec.topics, subs: (spec.subMin + spec.subMax) / 2, full: spec.cfg.Membership == core.MemberFull,
		latency: spec.net.Latency, loss: spec.net.Loss, goroutines: rp.rig.shards, aimd: spec.cfg.Controller.Kind == core.ControllerAIMD,
	}
	if spec.cfg.BufferCap > 0 {
		shape.bufferCap = spec.cfg.BufferCap
	}
	if spec.cfg.SeenCap > 0 {
		shape.seenCap = spec.cfg.SeenCap
	}
	pr := runProbes(rc, shape, false)
	pr.into(L)

	// est_cpu_frac = operations in the timed window x probe ns/op / CPU.
	cpuNS := float64(cpuSum)
	nodeRounds := float64(spec.n * timedRounds)
	events := recv + float64(rp.rig.shards*timedRounds)
	if rp.rig.sim != nil {
		events = float64(stepsHi - stepsLo)
	}
	evPerMsg := ratio(timed.appBytes/ratio(timed.appMsgs, 1)-float64(gossipHeader), pr.eventWire)
	novel := ratio(timed.useful, pr.eventWire)
	L["wire.events_per_envelope"] = evPerMsg
	L["wire.envelope_bytes_mean"] = ratio(timed.appBytes, timed.appMsgs)
	est := map[string]float64{
		"eventsim":   events * pr.schedStepNS,
		"simnet":     msgs * pr.sendDeliverNS,
		"fairness":   (msgs + recv + timed.delivered) * pr.ledgerAddNS,
		"gossip":     nodeRounds*(pr.selectNS+pr.insertTickNS) + recv*evPerMsg*pr.seenAddNS,
		"membership": nodeRounds * pr.sampleNS,
		"pubsub":     novel * pr.matchNS,
		"adaptive":   nodeRounds / 5 * pr.updateNS,
	}
	if !shape.full {
		est["membership"] += nodeRounds / 4 * pr.shuffleNS
	}
	lower := 0.0
	for layer, ns := range est {
		f := ns / cpuNS
		lower += f
		if layer != "pubsub" && layer != "adaptive" {
			L[layer+".est_cpu_frac"] = f
		}
	}
	L["core.residual_cpu_frac"] = 1 - lower
	return res, nil
}

// gossipHeader is the fixed part of a gossip envelope's charged size.
const gossipHeader = gossip.MsgHeaderSize

// audit counts, for the events of the count window, the expected
// (event, interested node) deliveries and the ones that never happened.
func (rp *simReplay) audit() (attempted, failed int64) {
	for idx := rp.winLo; idx < rp.winHi; idx++ {
		if rp.in.members == nil { // everyone matches everything
			attempted += int64(rp.spec.n)
			for i := range rp.logs {
				if !rp.logs[i].has(idx) {
					failed++
				}
			}
			continue
		}
		for _, i := range rp.in.members[rp.eventTopic[idx]] {
			attempted++
			if !rp.logs[i].has(idx) {
				failed++
			}
		}
	}
	return attempted, failed
}

// latency returns the count window's publish→deliver p50 and p99 in
// milliseconds of simulated time, and the number of samples.
func (rp *simReplay) latency() (p50, p99 float64, samples int) {
	if rp.latHist == nil {
		q := stats.Quantiles(rp.latMS, 0.5, 0.99)
		return q[0], q[1], len(rp.latMS)
	}
	// Bucket k holds the deliveries that took (k, k+1] rounds; the
	// histogram spreads a bucket's mass evenly over it, so the figure moves
	// with the distribution instead of jumping a whole round at a time.
	h := stats.NewHistogram(0, latRoundsCap, latRoundsCap)
	for i, c := range rp.latHist {
		for ; c > 0; c-- {
			h.Add(float64(i%latRoundsCap) + 0.5)
		}
	}
	period := float64(rp.spec.cfg.RoundPeriod) / 1e6
	if period == 0 {
		period = 100 // core's default RoundPeriod, ms
	}
	return h.Quantile(0.5) * period, h.Quantile(0.99) * period, int(h.Count())
}
