package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fairgossip/internal/adaptive"
	"fairgossip/internal/eventsim"
	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/membership"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/transport"
	"fairgossip/internal/wire"
)

// probeShape is what a probe needs to know about the workload it
// stands in for: each probe times one layer's public functions alone,
// on inputs of the workload's shape.
type probeShape struct {
	n          int
	viewCap    int
	shuffleLen int
	fanout     int
	bufferCap  int
	arrivals   int // new events a node buffers per round (times maxAge: its steady occupancy)
	maxAge     int
	seenCap    int
	policy     gossip.Policy
	batch      int
	payload    int
	topics     int // 0: one MatchAll filter
	subs       int
	full       bool // idealised full sampler instead of a Cyclon view
	aimd       bool
	goroutines int

	latency simnet.LatencyModel // simulator workloads
	loss    float64

	udp           bool // live workloads
	profile       *transport.Profile
	envelopeBytes int
}

// probeResult holds ns/op per probed operation (0: not probed because
// the workload never enters that layer).
type probeResult struct {
	schedStepNS, sendDeliverNS        float64
	ledgerAddNS                       float64
	selectNS, insertTickNS, seenAddNS float64
	shuffleNS, sampleNS               float64
	matchNS, eventWire                float64
	updateNS                          float64
	encodeNS, decodeNS, decodeAllocs  float64
	sendNS, shapeSendNS               float64
}

func (p probeResult) into(L map[string]float64) {
	L["eventsim.sched_step_ns"] = p.schedStepNS
	L["simnet.send_deliver_ns"] = p.sendDeliverNS
	L["fairness.add_ns"] = p.ledgerAddNS
	L["gossip.select_ns"] = p.selectNS
	L["gossip.insert_tick_ns"] = p.insertTickNS
	L["gossip.seen_add_ns"] = p.seenAddNS
	L["membership.shuffle_ns"] = p.shuffleNS
	L["membership.sample_ns"] = p.sampleNS
	L["pubsub.match_ns"] = p.matchNS
	L["pubsub.event_wire_bytes"] = p.eventWire
	L["adaptive.update_ns"] = p.updateNS
	L["wire.encode_ns"] = p.encodeNS
	L["wire.decode_ns"] = p.decodeNS
	L["wire.decode_allocs"] = p.decodeAllocs
	L["transport.send_ns"] = p.sendNS
	L["transport.shape_send_ns"] = p.shapeSendNS
}

const probeBatches = 5

// timeOp runs fn in probeBatches batches of iters calls and returns the
// median batch's ns per call, under a probe/<name> span.
func timeOp(rc *runCtx, name string, iters int, fn func()) float64 {
	id := rc.tr.begin("probe/" + name)
	defer rc.tr.end(id)
	if rc.toy {
		iters /= 50
	}
	per := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(iters))
	}
	return median(per)
}

type nopHandler struct{}

func (nopHandler) HandleSimMsg(eventsim.Msg)    {}
func (nopHandler) HandleMessage(simnet.Message) {}

func probeEvent(sh probeShape, i int) *pubsub.Event {
	topic := "feed"
	if sh.topics > 0 {
		topic = fmt.Sprintf("topic-%03d", i%sh.topics)
	}
	return &pubsub.Event{ID: pubsub.EventID{Publisher: uint32(i % sh.n), Seq: uint32(i)}, Topic: topic, Payload: make([]byte, sh.payload)}
}

// runProbes times every layer the workload enters; live selects the
// live runtime's layers (codec, transport) over the simulator's
// (kernel, simulated network).
func runProbes(rc *runCtx, sh probeShape, live bool) probeResult {
	rc.setRun("probes")
	rng := rand.New(rand.NewSource(rc.seed))
	var pr probeResult

	if !live {
		// Kernel: schedule one in-flight message and step one, at the
		// depth a round of the workload keeps pending.
		sim := eventsim.New(rc.seed)
		depth := min(sh.n*sh.fanout, 1<<17)
		for i := 0; i < depth; i++ {
			sim.ScheduleMsg(time.Duration(rng.Int63n(int64(50*time.Millisecond))), nopHandler{}, eventsim.Msg{})
		}
		pr.schedStepNS = timeOp(rc, "eventsim.sched_step", 200000, func() {
			sim.ScheduleMsg(time.Duration(rng.Int63n(int64(50*time.Millisecond))), nopHandler{}, eventsim.Msg{})
			sim.Step()
		})

		// Simulated network: Send plus the delivery it schedules, under
		// the workload's latency model and loss.
		nsim := eventsim.New(rc.seed)
		net := simnet.New(nsim, simnet.Config{Latency: sh.latency, Loss: sh.loss})
		nodes := min(sh.n, 4096)
		for i := 0; i < nodes; i++ {
			net.AddNode(nopHandler{})
		}
		for i := 0; i < depth; i++ {
			net.Send(simnet.NodeID(i%nodes), simnet.NodeID((i+1)%nodes), nil, 256)
		}
		i := 0
		pr.sendDeliverNS = timeOp(rc, "simnet.send_deliver", 200000, func() {
			net.Send(simnet.NodeID(i%nodes), simnet.NodeID((i+7)%nodes), nil, 256)
			nsim.Step()
			i++
		})
	}

	// Ledger: the protocol's mix of one send, one audit and one delivery
	// per call, from as many goroutines as the workload writes from.
	ledger := fairness.NewLedger(sh.n, fairness.DefaultWeights())
	{
		const per = 100000
		id := rc.tr.begin("probe/fairness.add")
		samples := make([]float64, 0, probeBatches)
		for b := 0; b < probeBatches; b++ {
			var wg sync.WaitGroup
			t0 := time.Now()
			for g := 0; g < sh.goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					// Each goroutine writes its own slice of the accounts, as a
					// shard or a peer does.
					lo, span := g*sh.n/sh.goroutines, max(sh.n/sh.goroutines, 1)
					for i := 0; i < per; i++ {
						id := lo + i%span
						ledger.AddSend(id, fairness.ClassApp, 512)
						ledger.AddAudit(id, 400, 112)
						ledger.AddDelivery(id)
					}
				}(g)
			}
			wg.Wait()
			samples = append(samples, float64(time.Since(t0))/(3*per))
		}
		rc.tr.end(id)
		pr.ledgerAddNS = median(samples)
	}

	// Event buffer at the workload's occupancy: arrivals inserts and one
	// Tick per round keep it there; selection draws the workload's batch.
	buf := gossip.NewBuffer(sh.bufferCap, sh.maxAge)
	seq := 0
	round := func() {
		for k := 0; k < sh.arrivals; k++ {
			buf.Insert(probeEvent(sh, seq))
			seq++
		}
		buf.Tick()
	}
	for r := 0; r < 2*sh.maxAge; r++ {
		round()
	}
	pr.insertTickNS = timeOp(rc, "gossip.insert_tick", 20000, round)
	var scratch []*pubsub.Event
	pr.selectNS = timeOp(rc, "gossip.select", 20000, func() {
		buf.SelectInto(rng, &scratch, sh.batch, sh.policy)
	})
	seen := gossip.NewSeenSet(sh.seenCap)
	for i := 0; i < sh.seenCap; i++ {
		seen.Add(pubsub.EventID{Publisher: 1, Seq: uint32(i)})
	}
	next := uint32(sh.seenCap)
	pr.seenAddNS = timeOp(rc, "gossip.seen_add", 200000, func() {
		seen.Add(pubsub.EventID{Publisher: 1, Seq: next})
		next++
	})

	// Membership: a full Cyclon exchange between two filled views, and
	// the per-round partner draw.
	mk := func(self int) *membership.Cyclon {
		v := membership.NewView(simnet.NodeID(self), sh.viewCap)
		for v.Len() < min(sh.viewCap, sh.n-1) {
			v.Add(simnet.NodeID(rng.Intn(sh.n)))
		}
		return membership.NewCyclon(v, sh.shuffleLen)
	}
	a, b := mk(0), mk(1)
	if !sh.full {
		pr.shuffleNS = timeOp(rc, "membership.shuffle", 20000, func() {
			_, offer, ok := a.InitiateShuffle(rng)
			if !ok {
				return
			}
			reply := b.HandleShuffle(rng, a.View().Self(), offer)
			a.HandleReply(b.View().Self(), reply)
		})
		dst := make([]simnet.NodeID, 0, sh.viewCap)
		pr.sampleNS = timeOp(rc, "membership.sample", 200000, func() {
			dst = a.View().SampleInto(rng, sh.fanout, dst)
		})
	} else {
		fs := membership.FullSampler{Self: 0, N: sh.n}
		pr.sampleNS = timeOp(rc, "membership.sample", 200000, func() {
			fs.SamplePeers(rng, sh.fanout)
		})
	}

	// Filters: a node's interest against the workload's events.
	var in pubsub.Interest
	if sh.topics == 0 {
		in.Subscribe(pubsub.MatchAll())
	} else {
		for s := 0; s < sh.subs; s++ {
			in.Subscribe(pubsub.Topic(fmt.Sprintf("topic-%03d", (s*7)%sh.topics)))
		}
	}
	evs := make([]*pubsub.Event, 64)
	for i := range evs {
		evs[i] = probeEvent(sh, i)
	}
	k := 0
	pr.matchNS = timeOp(rc, "pubsub.match", 200000, func() {
		in.Match(evs[k&63])
		k++
	})
	pr.eventWire = float64(evs[0].WireSize())

	// Controller: one window's update, alternating over- and under-target
	// samples so both branches run.
	var ctrl adaptive.Controller = adaptive.Static{F: sh.fanout, N: sh.batch}
	if sh.aimd {
		ctrl = adaptive.NewAIMD(adaptive.Config{TargetRatio: 8000, Limits: adaptive.DefaultLimits(sh.n)}, adaptive.LeverBoth, sh.fanout, sh.batch)
	}
	pr.updateNS = timeOp(rc, "adaptive.update", 200000, func() {
		k++
		ctrl.Update(adaptive.Sample{Benefit: 10, Contribution: float64(40000 + 80000*(k&1))})
	})

	if !live {
		return pr
	}

	// Codec: the workload's batch of the workload's events, encoded into a
	// fresh buffer as the round path does, decoded into reused scratch.
	batch := evs[:max(min(sh.batch, len(evs)), 1)]
	if sh.envelopeBytes > 0 {
		batch = evs[:max(min((sh.envelopeBytes-wire.HeaderSize)/evs[0].WireSize(), len(evs)), 1)]
	}
	var enc []byte
	pr.encodeNS = timeOp(rc, "wire.encode", 50000, func() {
		enc, _ = wire.AppendEnvelope(make([]byte, 0, wire.EnvelopeSize(batch)), 1, batch)
	})
	var env wire.Envelope
	a0 := mallocsNow()
	pr.decodeNS = timeOp(rc, "wire.decode", 50000, func() {
		_ = wire.DecodeEnvelope(enc, &env)
	})
	pr.decodeAllocs = float64(mallocsNow()-a0) / (50000 * probeBatches)

	// Transport: Send until the receiving handler has the envelope, on
	// the workload's net, at the workload's envelope size.
	pr.sendNS = probeTransport(rc, sh, "transport.send", enc, nil)
	if sh.profile != nil {
		pr.shapeSendNS = probeTransport(rc, sh, "transport.shape_send", enc, sh.profile)
	}
	return pr
}

// probeTransport returns the process CPU time per envelope moved from
// one endpoint to another: senders, socket readers and the shaper's
// dispatcher all count, sleeping on a deferral does not. Envelopes go
// out in windows of 32 (small enough for a loopback socket buffer);
// with a profile they pass through the shaping middleware, up to
// inFlight of them deferred at a time, and the ones it drops count as
// moved.
func probeTransport(rc *runCtx, sh probeShape, name string, buf []byte, prof *transport.Profile) float64 {
	id := rc.tr.begin("probe/" + name)
	defer rc.tr.end(id)
	factory := transport.Chan()
	if sh.udp {
		factory = transport.UDP()
	}
	nw, err := factory(2)
	if err != nil {
		return 0
	}
	var shaped *transport.ShapedNet
	inFlight := int64(0)
	if prof != nil {
		p := *prof
		p.Seed = rc.seed
		shaped = transport.Shape(nw, p)
		nw, inFlight = shaped, 256
	}
	defer nw.Close()
	var got atomic.Int64
	moved := func() int64 {
		if shaped != nil {
			return got.Load() + int64(shaped.Drops())
		}
		return got.Load()
	}
	tx, err := nw.Attach(0, func([]byte) {})
	if err != nil {
		return 0
	}
	if _, err := nw.Attach(1, func([]byte) { got.Add(1) }); err != nil {
		return 0
	}
	// await blocks until all but allow of the sent envelopes have moved; a
	// datagram the kernel lost would otherwise hang the probe.
	await := func(sent, allow int64) {
		deadline := time.Now().Add(200 * time.Millisecond)
		for moved() < sent-allow && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	const window, windows = 32, 100
	var sent int64
	per := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		c0 := cpuNow()
		for w := 0; w < windows; w++ {
			for i := 0; i < window; i++ {
				if tx.Send(1, buf) != nil {
					return 0
				}
			}
			sent += window
			await(sent, inFlight)
		}
		await(sent, 0)
		per = append(per, float64(cpuNow()-c0)/(window*windows))
	}
	return median(per)
}
