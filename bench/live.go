package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"fairgossip/internal/gossip"
	"fairgossip/internal/live"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/stats"
	"fairgossip/internal/transport"
	"fairgossip/internal/wire"
)

// liveSpec sizes one live-runtime workload. Load is open loop: events
// fall due on a fixed schedule whatever the system does, and latency is
// timed from the due instant, so a stall is charged to every event it
// delayed.
type liveSpec struct {
	cfg    live.Config // Seed, Transport and Shape are filled per run
	udp    bool
	shape  *transport.Profile
	topics int
	zipf   float64
	subMin int
	subMax int

	rate    float64 // events due per second
	payload int
	warm    time.Duration
	blocks  int
	drain   int // rounds waited after the last event before Stop
	setups  int

	// The first churners peers crash and rejoin in rotation: every
	// churnEvery the next one crashes, and comes back churnDown later.
	// They hold subscriptions and forward like anyone, but expected
	// deliveries and latency are taken on the other peers only, which
	// are up throughout.
	churners   int
	churnEvery time.Duration
	churnDown  time.Duration

	minDeliver float64
}

// liveViewCap is the partial-view size of both live workloads: 32 of
// the 47 other peers, not the default 16. With views of 16 a peer known
// to only a handful of others received as few as 4 copies of an event
// (the median is 28), which put a missed delivery in every few hundred
// runs; with 32 the fewest seen is 8 and the expected misses of a run
// are below 1e-5 (README, "No failed operations").
const liveViewCap = 32

func liveChanSpec(toy bool) liveSpec {
	spec := liveSpec{
		cfg: live.Config{N: 48, RoundPeriod: 10 * time.Millisecond, TargetRatio: 8000,
			Policy: gossip.PolicyLeastSent, BufferMaxAge: 16, ViewCap: liveViewCap},
		topics: 16, zipf: 1.01, subMin: 1, subMax: 6,
		rate: 200, payload: 64,
		warm: 2 * time.Second, blocks: 6, drain: 30, setups: 11,
		minDeliver: 0.99,
	}
	if toy {
		spec.toy()
	}
	return spec
}

func liveUDPWANSpec(toy bool) liveSpec {
	spec := liveSpec{
		cfg: live.Config{N: 48, RoundPeriod: 10 * time.Millisecond, Fanout: 4, Batch: 8,
			Policy: gossip.PolicyLeastSent, BufferMaxAge: 16, ViewCap: liveViewCap},
		udp:    true,
		shape:  &transport.Profile{Delay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond, Reorder: 0.08, Loss: 0.03},
		topics: 16, zipf: 1.01, subMin: 1, subMax: 6,
		rate: 100, payload: 1024,
		warm: 2 * time.Second, blocks: 6, drain: 30, setups: 11,
		churners: 6, churnEvery: time.Second, churnDown: 3 * time.Second,
		minDeliver: 0.99,
	}
	if toy {
		spec.toy()
	}
	return spec
}

// toy shrinks the spec to bench_test.go's smoke-test size.
func (s *liveSpec) toy() {
	s.cfg.N, s.warm, s.blocks, s.setups = 8, 200*time.Millisecond, 2, 2
	if s.churners > 0 {
		s.churners, s.churnEvery, s.churnDown = 2, 100*time.Millisecond, 200*time.Millisecond
	}
}

// livePeer is the harness's per-peer delivery record. Only the peer's
// own goroutine writes it while the cluster runs; the harness reads it
// after Stop.
type livePeer struct {
	log deliveryLog
	lat [][]float64 // per block: publish(due)→deliver latency, ms
}

type liveRun struct {
	spec   liveSpec
	c      *live.Cluster
	peers  []livePeer
	t0     time.Time    // origin of due stamps: the instant the cluster started
	blk    atomic.Int32 // block deliveries are being filed under
	checks checks

	setup, newCluster, subscribe time.Duration
}

func (lr *liveRun) observer(i int) func(*pubsub.Event) {
	p := &lr.peers[i]
	measured := i >= lr.spec.churners
	return func(ev *pubsub.Event) {
		now := time.Since(lr.t0)
		_, due := p.log.record(ev.Payload, &lr.checks)
		if measured {
			k := lr.blk.Load()
			p.lat[k] = append(p.lat[k], float64(int64(now)-due)/1e6)
		}
	}
}

// buildLive constructs, subscribes and starts one cluster, noting how
// long that took split by phase.
func buildLive(rc *runCtx, spec liveSpec, in topicInputs, events int) (*liveRun, error) {
	cfg := spec.cfg
	cfg.Seed = rc.seed
	if spec.udp {
		cfg.Transport = transport.UDP()
	}
	if spec.shape != nil {
		prof := *spec.shape
		cfg.Shape = &prof
	}
	t0 := time.Now()
	id := rc.tr.begin("setup/new_cluster")
	c, err := live.NewCluster(cfg)
	rc.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("live.NewCluster: %w", err)
	}
	lr := &liveRun{spec: spec, c: c, peers: make([]livePeer, cfg.N), newCluster: time.Since(t0)}
	id = rc.tr.begin("setup/subscribe")
	for i := range lr.peers {
		p := &lr.peers[i]
		p.log = deliveryLog{mask: in.mask[i], got: make([]uint64, (events+63)/64)}
		p.lat = make([][]float64, spec.blocks+2)
		for t, name := range in.names {
			if p.log.mask>>uint(t)&1 == 1 {
				c.Subscribe(i, pubsub.Topic(name))
			}
		}
		c.OnDeliver(i, lr.observer(i))
	}
	rc.tr.end(id)
	lr.subscribe = time.Since(t0) - lr.newCluster
	id = rc.tr.begin("setup/start")
	lr.t0 = time.Now() // before Start, so every peer goroutine sees it
	c.Start()
	rc.tr.end(id)
	lr.setup = time.Since(t0)
	return lr, nil
}

func runLive(rc *runCtx, spec liveSpec) (*result, error) {
	res := newResult()
	if rc.tr != nil {
		rc.tr.on = true
	}
	n := spec.cfg.N
	in := genTopicInputs(n, spec.topics, spec.zipf, spec.subMin, spec.subMax, spec.churners, rc.seed)
	gen := rand.New(rand.NewSource(rc.seed ^ 0x70756273))
	// One cycle of the schedule is one second of events, so blocks of
	// whole seconds are offered identical topic mixes.
	sched := newSchedule(in, int(spec.rate), 0, gen)
	blockLen := rc.seconds / time.Duration(spec.blocks)
	timed := blockLen * time.Duration(spec.blocks)
	gap := time.Duration(float64(time.Second) / spec.rate)
	events := int((spec.warm + timed) / gap)

	var setups setupSamples
	var lr *liveRun
	for s := 0; s < spec.setups; s++ {
		rc.setRun(fmt.Sprintf("setup%d", s))
		if lr != nil {
			lr.c.Stop()
			runtime.GC()
		}
		var err error
		if lr, err = buildLive(rc, spec, in, events); err != nil {
			return nil, err
		}
		setups.add(lr.setup, lr.newCluster, lr.subscribe)
	}
	rc.setRun("measured")
	c := lr.c
	defer c.Stop()

	// Open-loop generator, block bookkeeping and the churn schedule all
	// run on this one goroutine.
	var (
		blocks                 []block
		pubWaitUS              []float64
		lagMaxMS               float64
		warmWall               time.Duration // cluster start to the first timed block
		topicOf                = make([]uint8, events)
		w0                     time.Time
		c0                     time.Duration
		led0, ledStart, ledEnd ledgerTotals
		traf0, traf1           live.Traffic
		allocs0, allocs1       uint64
		env0, env1             envSnap
		bid                    = -1
		cur                    = 0 // 0: warm-up, 1..blocks: timed, blocks+1: drain
		nextChurn              = spec.warm
		churnIdx               = 0
		down                   []time.Duration // rejoin instants, FIFO, parallel to downIDs
		downIDs                []int
		wid                    = rc.tr.begin("warmup")
	)
	openBlock := func() {
		b := cur - 1
		bid = rc.tr.begin(fmt.Sprintf("block[%d]", b))
		rc.traceBlock(b)
		led0 = sumLedger(c.Ledger())
		w0, c0 = time.Now(), cpuNow()
	}
	closeBlock := func() {
		b := cur - 1
		bl := block{wall: time.Since(w0), cpu: cpuNow() - c0, traced: rc.traced && b%2 == 0}
		rc.endTraceBlock()
		rc.tr.end(bid)
		led := sumLedger(c.Ledger())
		bl.deliveries = led.delivered - led0.delivered
		blocks = append(blocks, bl)
		rc.tr.count(fmt.Sprintf("block[%d]", b), map[string]float64{
			"deliveries": bl.deliveries, "cpu_ns": float64(bl.cpu), "wall_ns": float64(bl.wall),
			"sent": float64(c.Traffic().Sent), "mallocs": float64(mallocsNow()),
		})
	}
	// advance moves the block bookkeeping up to instant at (since t0).
	advance := func(at time.Duration) {
		for cur <= spec.blocks && at >= spec.warm+time.Duration(cur)*blockLen {
			if cur == 0 {
				rc.tr.end(wid)
				runtime.GC()
				ledStart, traf0, allocs0, env0 = sumLedger(c.Ledger()), c.Traffic(), mallocsNow(), takeEnv()
			} else {
				closeBlock()
			}
			cur++
			lr.blk.Store(int32(cur))
			if cur == 1 {
				warmWall = time.Since(lr.t0)
			}
			if cur <= spec.blocks {
				openBlock()
			} else {
				ledEnd, traf1, allocs1, env1 = sumLedger(c.Ledger()), c.Traffic(), mallocsNow(), takeEnv()
			}
		}
	}
	churn := func(at time.Duration) {
		for len(down) > 0 && at >= down[0] {
			c.Rejoin(downIDs[0])
			down, downIDs = down[1:], downIDs[1:]
		}
		if spec.churners > 0 && at >= nextChurn {
			id := churnIdx % spec.churners
			c.Crash(id)
			down, downIDs = append(down, at+spec.churnDown), append(downIDs, id)
			churnIdx++
			nextChurn += spec.churnEvery
		}
	}

	// The schedule is open loop towards the system: time the system makes
	// the generator wait (inside Publish, or behind a late Publish) is
	// charged to the events it delays. Time the host keeps the generator
	// asleep past its wake-up instant is not: the peers' round timers do
	// not replay the ticks they lose to such a stall either, so the
	// overshoot is taken out of the schedule (slip) instead of being
	// worked off in a burst of overdue events that no peer had rounds for.
	var slip time.Duration
	timedLo, issued := events, 0 // first event due inside the timed window; events published
	for i := 0; i < events; i++ {
		due := time.Duration(i)*gap + slip
		if due >= spec.warm+timed {
			break
		}
		if wait := due - time.Since(lr.t0); wait > 0 {
			time.Sleep(wait)
			if over := time.Since(lr.t0) - due; over > spec.cfg.RoundPeriod {
				slip, due = slip+over, due+over
			}
		}
		now := time.Since(lr.t0)
		advance(now)
		churn(now)
		if due >= spec.warm {
			timedLo = min(timedLo, i)
			lagMaxMS = max(lagMaxMS, float64(now-due)/1e6)
		}
		issued = i + 1
		t := sched.next()
		name := in.names[t]
		topicOf[i] = uint8(t)
		from := spec.churners + gen.Intn(n-spec.churners)
		p := newPayload(spec.payload, i, t, int64(due))
		sid := rc.tr.begin("publish")
		p0 := time.Now()
		ok := c.Publish(from, name, nil, p)
		took := time.Since(p0)
		rc.tr.end(sid)
		if !ok {
			return nil, fmt.Errorf("publish %d refused", i)
		}
		if due >= spec.warm {
			pubWaitUS = append(pubWaitUS, float64(took)/1e3)
		}
	}
	if wait := spec.warm + timed - time.Since(lr.t0); wait > 0 {
		time.Sleep(wait)
	}
	advance(spec.warm + timed)

	id := rc.tr.begin("drain")
	for _, who := range downIDs {
		c.Rejoin(who)
	}
	time.Sleep(time.Duration(spec.drain) * spec.cfg.RoundPeriod)
	var fan, bat float64
	for i := 0; i < n; i++ {
		f, b, _ := c.Levers(i)
		fan, bat = fan+float64(f), bat+float64(b)
	}
	rc.tr.end(id)
	id = rc.tr.begin("stop")
	s0 := time.Now()
	c.Stop()
	stopMS := float64(time.Since(s0)) / 1e6
	rc.tr.end(id)
	traf := c.Traffic()
	views := c.Views()
	id = rc.tr.begin("report")
	r0 := time.Now()
	rep := c.Report()
	reportMS := float64(time.Since(r0)) / 1e6
	rc.tr.end(id)

	// --- outputs ---
	win := ledEnd.sub(ledStart)
	for i := timedLo; i < issued; i++ {
		for _, m := range in.measured[topicOf[i]] {
			res.attempted++
			if !lr.peers[m].log.has(i) {
				res.failed++
			}
		}
	}
	var cpuPer, delPer, p50s, p99s, counts, tracedCPU, plainCPU []float64
	var wallSum, cpuSum time.Duration
	for k, b := range blocks {
		cpuPer = append(cpuPer, b.cpuUSPerDelivery())
		delPer = append(delPer, b.deliveriesPerS())
		wallSum += b.wall
		cpuSum += b.cpu
		if b.traced {
			tracedCPU = append(tracedCPU, b.cpuUSPerDelivery())
		} else {
			plainCPU = append(plainCPU, b.cpuUSPerDelivery())
		}
		var lat []float64
		for i := range lr.peers {
			lat = append(lat, lr.peers[i].lat[k+1]...)
		}
		q := stats.Quantiles(lat, 0.5, 0.99)
		p50s, p99s = append(p50s, q[0]), append(p99s, q[1])
		counts = append(counts, float64(len(lat)))
	}
	// Set-up ends where the first timed block opens. The warm-up is paced
	// by the wall clock, not by the code, so it is the same for every
	// construction; without it the figure is a millisecond of socket and
	// goroutine start-up whose cost moves by half with the host.
	for i := range setups.all {
		setups.all[i] += warmWall.Seconds()
	}
	setups.into(res)
	res.layer["proc.deliveries_per_s"] = median(delPer)
	res.layer["proc.cpu_us_per_delivery"] = median(cpuPer)
	res.e2e["allocs_per_delivery"] = ratio(float64(allocs1-allocs0), win.delivered)
	res.e2e["peak_rss_mb"] = peakRSSMB()
	res.e2e["deliver_ms_p50"] = median(p50s)
	res.e2e["deliver_ms_p99"] = median(p99s)
	res.e2e["wire_bytes_per_delivery"] = ratio(win.appBytes+win.infraBytes, win.delivered)
	res.e2e["ratio_jain"] = rep.RatioJain
	res.raw["proc.deliveries_per_s"] = delPer
	res.raw["proc.cpu_us_per_delivery"] = cpuPer
	res.raw["deliver_ms_p50"] = p50s
	res.raw["deliver_ms_p99"] = p99s
	res.raw["latency_samples_per_block"] = counts
	res.info["latency_samples"] = int(median(counts))
	res.info["latency_clock"] = "wall, from each event's due instant"
	res.info["blocks"] = len(blocks)
	res.info["block_seconds"] = blockLen.Seconds()
	res.info["n"] = n
	res.info["offered_events_per_s"] = spec.rate
	res.info["generator_lag_ms_max"] = lagMaxMS
	res.info["generator_slip_ms"] = float64(slip) / 1e6

	res.checkDeliveries(&lr.checks, spec.minDeliver)
	gapMsgs := int64(traf.Sent) - int64(traf.Recv) - int64(traf.Dropped)
	if spec.udp {
		res.check("Sent - Recv - Dropped >= 0 after Stop", gapMsgs >= 0, fmt.Sprintf("gap %d of %d sent", gapMsgs, traf.Sent))
	} else {
		res.check("Sent == Recv + Dropped after Stop", gapMsgs == 0, fmt.Sprintf("sent %d recv %d dropped %d", traf.Sent, traf.Recv, traf.Dropped))
	}
	if !rc.traced {
		return res, nil
	}

	// --- per-layer counters over the timed window ---
	L := res.layer
	sent := float64(traf1.Sent - traf0.Sent)
	recv := float64(traf1.Recv - traf0.Recv)
	rounds := timed.Seconds() / spec.cfg.RoundPeriod.Seconds()
	fill := 0.0
	for _, v := range views {
		fill += float64(len(v))
	}
	viewCap := spec.cfg.ViewCap
	if viewCap == 0 {
		viewCap = 16
	}
	L["fairness.report_ms"] = reportMS
	L["gossip.useful_byte_frac"] = 0 // the live runtime keeps no novelty audit
	L["gossip.sends_per_delivery"] = ratio(win.appMsgs, win.delivered)
	L["membership.infra_byte_frac"] = ratio(win.infraBytes, win.appBytes+win.infraBytes)
	L["membership.view_fill"] = fill / float64(n*viewCap)
	L["adaptive.fanout_mean"] = fan / float64(n)
	L["adaptive.batch_mean"] = bat / float64(n)
	L["wire.envelope_bytes_mean"] = ratio(win.appBytes, win.appMsgs)
	L["transport.sent_per_s"] = sent / timed.Seconds()
	L["transport.drop_frac_fault"] = ratio(float64(traf1.FaultDrops-traf0.FaultDrops), sent)
	L["transport.drop_frac_inbox"] = ratio(float64(traf1.InboxDrops-traf0.InboxDrops), sent)
	L["transport.drop_frac_transport"] = ratio(float64(traf1.TransportDrops-traf0.TransportDrops), sent)
	L["transport.drop_frac_shaper"] = ratio(float64(traf1.ShaperDrops-traf0.ShaperDrops), sent)
	L["transport.conservation_gap"] = float64(gapMsgs)
	wait := stats.Quantiles(pubWaitUS, 0.5, 0.99)
	L["live.publish_wait_us_p50"], L["live.publish_wait_us_p99"] = wait[0], wait[1]
	L["live.generator_lag_ms_max"] = lagMaxMS
	L["live.cpu_util"] = ratio(cpuSum.Seconds(), wallSum.Seconds())
	L["live.envelopes_per_round"] = sent / rounds
	L["live.stop_ms"] = stopMS
	L["trace.overhead_frac"] = ratio(median(tracedCPU), median(plainCPU)) - 1
	envLayer(L, env0, env1, cpuSum)

	shape := probeShape{
		n: n, viewCap: viewCap, shuffleLen: 8, bufferCap: 256, maxAge: spec.cfg.BufferMaxAge, seenCap: 8192,
		policy: spec.cfg.Policy, batch: int(L["adaptive.batch_mean"] + 0.5), fanout: int(L["adaptive.fanout_mean"] + 0.5), payload: spec.payload,
		arrivals: max(int(spec.rate*spec.cfg.RoundPeriod.Seconds()+0.5), 1),
		topics:   spec.topics, subs: (spec.subMin + spec.subMax) / 2, goroutines: rc.procs,
		aimd: spec.cfg.TargetRatio > 0, udp: spec.udp, profile: spec.shape,
		envelopeBytes: int(L["wire.envelope_bytes_mean"] + 0.5),
	}
	pr := runProbes(rc, shape, true)
	pr.into(L)
	evPerEnv := ratio(L["wire.envelope_bytes_mean"]-wire.HeaderSize, pr.eventWire)
	L["wire.events_per_envelope"] = evPerEnv

	cpuNS := float64(cpuSum)
	peerRounds := float64(n) * rounds
	encodes := ratio(win.appMsgs, L["adaptive.fanout_mean"]) // one encode serves the whole fanout
	est := map[string]float64{
		"fairness":   (sent + win.delivered) * pr.ledgerAddNS,
		"gossip":     peerRounds*(pr.selectNS+pr.insertTickNS) + recv*evPerEnv*pr.seenAddNS,
		"membership": peerRounds*pr.sampleNS + peerRounds/2*pr.shuffleNS,
		"pubsub":     recv * evPerEnv * pr.matchNS,
		"adaptive":   peerRounds / 5 * pr.updateNS,
		"wire":       encodes*pr.encodeNS + recv*pr.decodeNS,
		"transport":  sent * pr.sendNS,
	}
	if spec.shape != nil {
		est["transport"] = sent * pr.shapeSendNS
	}
	lower := 0.0
	for layer, ns := range est {
		f := ns / cpuNS
		lower += f
		if layer != "pubsub" && layer != "adaptive" {
			L[layer+".est_cpu_frac"] = f
		}
	}
	L["live.residual_cpu_frac"] = 1 - lower
	return res, nil
}
