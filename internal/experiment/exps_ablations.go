package experiment

import (
	"math"
	"math/rand"

	"fairgossip/internal/adaptive"
	"fairgossip/internal/core"
	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/stats"
	"fairgossip/internal/transport"
	"fairgossip/internal/workload"
)

// leverTrace runs an adaptive cluster under skewed interest, starting the
// levers far from equilibrium, and records every node's lever product
// (fanout × batch) at each control window. It returns the mean/p90 number
// of windows until a node's lever enters (and stays in) a ±15% band of
// its final value, and the population-mean settled lever (the operating
// point the controller found).
func leverTrace(opts Options, spec core.ControllerSpec, windows, f0, n0 int, limits adaptive.Limits) (meanConv, p90Conv, meanFinal float64) {
	n := pick(opts.Small, 64, 128)
	stocks := workload.NewStocks(16)
	c := core.NewCluster(n, core.Config{
		Mode:       core.ModeContent,
		Fanout:     f0,
		Batch:      n0,
		Controller: spec,
		Limits:     limits,
	}, core.ClusterOptions{Seed: opts.Seed, NetConfig: defaultNet()})
	for i := 0; i < n; i++ {
		sel := 0.01 + 0.5*float64(i)/float64(n-1)
		c.Node(i).Subscribe(stocks.FilterWithSelectivity(sel))
	}
	c.RunRounds(5)
	rng := rand.New(rand.NewSource(opts.Seed + 401))

	history := make([][]int, n)
	for w := 0; w < windows; w++ {
		for r := 0; r < 5; r++ {
			c.Node(rng.Intn(n)).Publish("ticks", stocks.Event(rng), nil)
			c.RunRounds(1)
		}
		for i := 0; i < n; i++ {
			history[i] = append(history[i], c.Node(i).Fanout()*c.Node(i).Batch())
		}
	}
	conv := make([]float64, 0, n)
	var finalSum float64
	for i := 0; i < n; i++ {
		h := history[i]
		final := h[len(h)-1]
		band := 0.15 * float64(final)
		if band < 1 {
			band = 1
		}
		settled := len(h)
		for w := len(h) - 1; w >= 0; w-- {
			if math.Abs(float64(h[w]-final)) > band {
				break
			}
			settled = w
		}
		conv = append(conv, float64(settled))
		finalSum += float64(final)
	}
	qs := stats.Quantiles(conv, 0.9)
	return stats.Mean(conv), qs[0], finalSum / float64(n)
}

// ExpA1 — §5.2 Q1: "How can the fanout be dynamically adapted to ensure
// quick convergence to an appropriate fanout?" Controller-family and
// parameter sweep on the fanout lever.
func ExpA1(opts Options) []Table {
	windows := pick(opts.Small, 20, 40)
	t := Table{
		ID:    "EXP-A1",
		Title: "Fanout-lever convergence by controller family",
		Note:  "proportional converges in fewer windows; all variants find a similar operating point",
		Cols:  []string{"controller", "param", "mean_windows_to_settle", "p90_windows", "mean_settled_lever"},
	}
	limits := adaptive.Limits{FanoutMin: 2, FanoutMax: 24, BatchMin: 8, BatchMax: 8}
	for _, beta := range []float64{0.5, 0.7, 0.9} {
		m, p90, ov := leverTrace(opts, core.ControllerSpec{
			Kind: core.ControllerAIMD, Lever: adaptive.LeverFanout, TargetRatio: 3000, Beta: beta,
		}, windows, 20, 8, limits)
		t.AddRow("aimd", beta, m, p90, ov)
	}
	for _, gain := range []float64{0.25, 0.5, 1.0} {
		m, p90, ov := leverTrace(opts, core.ControllerSpec{
			Kind: core.ControllerProportional, Lever: adaptive.LeverFanout, TargetRatio: 3000, Gain: gain,
		}, windows, 20, 8, limits)
		t.AddRow("proportional", gain, m, p90, ov)
	}
	return []Table{t}
}

// ExpA2 — §5.2 Q2: the same question for the gossip-message-size lever.
func ExpA2(opts Options) []Table {
	windows := pick(opts.Small, 20, 40)
	t := Table{
		ID:    "EXP-A2",
		Title: "Batch-lever convergence by controller family",
		Note:  "batch adapts in finer steps than fanout: slower settling but smaller quantisation error",
		Cols:  []string{"controller", "param", "mean_windows_to_settle", "p90_windows", "mean_settled_lever"},
	}
	limits := adaptive.Limits{FanoutMin: 5, FanoutMax: 5, BatchMin: 1, BatchMax: 64}
	for _, beta := range []float64{0.5, 0.7, 0.9} {
		m, p90, ov := leverTrace(opts, core.ControllerSpec{
			Kind: core.ControllerAIMD, Lever: adaptive.LeverBatch, TargetRatio: 3000, Beta: beta,
		}, windows, 5, 48, limits)
		t.AddRow("aimd", beta, m, p90, ov)
	}
	for _, gain := range []float64{0.25, 0.5, 1.0} {
		m, p90, ov := leverTrace(opts, core.ControllerSpec{
			Kind: core.ControllerProportional, Lever: adaptive.LeverBatch, TargetRatio: 3000, Gain: gain,
		}, windows, 5, 48, limits)
		t.AddRow("proportional", gain, m, p90, ov)
	}
	return []Table{t}
}

// ExpA3 — §5.2 Q3: "Is there any requirement on the size of the fanout?"
// Adaptation pressure pins fanout at the floor; the floor determines
// whether dissemination still completes.
func ExpA3(opts Options) []Table {
	n := pick(opts.Small, 128, 256)
	lnN := int(math.Ceil(math.Log(float64(n))))
	t := Table{
		ID:    "EXP-A3",
		Title: "Delivery ratio vs FanoutMin under shed-everything pressure",
		Note:  "reliability cliff below ~ln(n): the fairness lever must respect the gossip threshold",
		Cols:  []string{"fanout_min", "ln_n", "delivery_ratio"},
	}
	for fmin := 1; fmin <= lnN+2; fmin++ {
		c := core.NewCluster(n, core.Config{
			Mode:   core.ModeContent,
			Fanout: fmin, // adaptation target 0 keeps everyone at the floor
			Batch:  4,
			Controller: core.ControllerSpec{
				Kind: core.ControllerAIMD, TargetRatio: 1, // absurdly tight: shed to minimum
			},
			Limits: adaptive.Limits{FanoutMin: fmin, FanoutMax: fmin, BatchMin: 4, BatchMax: 4},
			// Short forwarding TTL (infect-and-die-ish): the regime where
			// the minimum-fanout threshold binds.
			BufferMaxAge: 2,
		}, core.ClusterOptions{Seed: opts.Seed, NetConfig: defaultNet()})
		for i := 0; i < n; i++ {
			c.Node(i).Subscribe(pubsub.MatchAll())
		}
		c.RunRounds(10)
		probeStart := c.Ledger.Snapshot()
		for e := 0; e < 5; e++ {
			c.Node(e).Publish("probe", nil, nil)
			c.RunRounds(3)
		}
		c.RunRounds(12)
		probeEnd := c.Ledger.Snapshot()
		delivered := 0
		for i := 0; i < n; i++ {
			if probeEnd[i].Delivered-probeStart[i].Delivered >= 5 {
				delivered++
			}
		}
		t.AddRow(fmin, lnN, float64(delivered)/float64(n))
	}
	return []Table{t}
}

// ExpA4 — §5.2 Q4: "Is there any requirement on the gossip message
// size?" Batch sweep under a fixed publication rate: latency, backlog and
// delivery; plus the SELECTEVENTS policy ablation.
func ExpA4(opts Options) []Table {
	n := pick(opts.Small, 96, 192)
	batchSweep := Table{
		ID:    "EXP-A4",
		Title: "Batch size vs dissemination performance (publish rate 2/round)",
		Note:  "undersized batches starve the buffer: rising latency and loss of coverage; adequate batches are cheap",
		Cols:  []string{"batch", "delivery_ratio", "mean_latency_rounds", "p95_latency_rounds"},
	}
	for _, batch := range []int{1, 2, 4, 8, 16, 32} {
		ratio, mean, p95 := runLatencyProbe(opts.Seed, n, batch, gossip.PolicyRandom)
		batchSweep.AddRow(batch, ratio, mean, p95)
	}
	policy := Table{
		ID:    "EXP-A4",
		Title: "SELECTEVENTS policy ablation (batch 4)",
		Note:  "least-sent spreads effort; newest minimises latency for fresh events; random sits between",
		Cols:  []string{"policy", "delivery_ratio", "mean_latency_rounds", "p95_latency_rounds"},
	}
	for _, p := range []struct {
		name string
		pol  gossip.Policy
	}{
		{"random", gossip.PolicyRandom},
		{"newest", gossip.PolicyNewest},
		{"least-sent", gossip.PolicyLeastSent},
	} {
		ratio, mean, p95 := runLatencyProbe(opts.Seed, n, 4, p.pol)
		policy.AddRow(p.name, ratio, mean, p95)
	}
	return []Table{batchSweep, policy}
}

// runLatencyProbe publishes 2 events per round for 40 rounds into a
// static content-mode cluster and measures delivery latency in rounds.
func runLatencyProbe(seed int64, n, batch int, pol gossip.Policy) (ratio, meanLat, p95Lat float64) {
	cfg := core.Config{
		Mode:   core.ModeContent,
		Fanout: int(math.Ceil(math.Log(float64(n)))) + 1,
		Batch:  batch,
		Policy: pol,
	}
	c := core.NewCluster(n, cfg, core.ClusterOptions{Seed: seed, NetConfig: defaultNet()})
	period := c.Config().RoundPeriod

	publishedAt := make(map[pubsub.EventID]int) // event -> publish round
	var latencies []float64
	deliveries := 0
	for i := 0; i < n; i++ {
		i := i
		c.Node(i).Subscribe(pubsub.MatchAll())
		c.Node(i).OnDeliver = func(ev *pubsub.Event) {
			if at, ok := publishedAt[ev.ID]; ok {
				round := int(c.Sim.Now() / period)
				latencies = append(latencies, float64(round-at))
				deliveries++
			}
		}
	}
	c.RunRounds(5)
	rng := rand.New(rand.NewSource(seed + 402))
	const rounds, perRound = 40, 2
	expected := 0
	for r := 0; r < rounds; r++ {
		for k := 0; k < perRound; k++ {
			pub := rng.Intn(n)
			id := c.Node(pub).Publish("probe", nil, make([]byte, 32))
			publishedAt[id] = int(c.Sim.Now() / period)
			// The publisher's own (immediate) delivery is not measured:
			// it happens before the event ID is known to the probe.
			expected += n - 1
		}
		c.RunRounds(1)
	}
	c.RunRounds(20)
	qs := stats.Quantiles(latencies, 0.95)
	return float64(deliveries) / float64(expected), stats.Mean(latencies), qs[0]
}

// ExpA5 — §5.2 Q5: "How can an adaptive algorithm maintain robustness of
// gossip protocols?" Crash 20% of the population and add 10% loss while
// adaptation is active.
func ExpA5(opts Options) []Table {
	n := pick(opts.Small, 96, 192)
	t := Table{
		ID:    "EXP-A5",
		Title: "Delivery before and after 20% crash + 10% loss",
		Note:  "adaptation keeps the floor fanout, so survivors still receive ~everything",
		Cols:  []string{"variant", "delivery_pre", "delivery_post", "jain_post"},
	}
	for _, v := range []struct {
		name string
		spec core.ControllerSpec
	}{
		{"static", core.ControllerSpec{Kind: core.ControllerStatic}},
		{"adaptive", core.ControllerSpec{Kind: core.ControllerAIMD, TargetRatio: 2500}},
	} {
		c := core.NewCluster(n, core.Config{
			Mode:       core.ModeContent,
			Fanout:     int(math.Ceil(math.Log(float64(n)))) + 2,
			Batch:      8,
			Controller: v.spec,
		}, core.ClusterOptions{Seed: opts.Seed, NetConfig: defaultNet()})
		for i := 0; i < n; i++ {
			c.Node(i).Subscribe(pubsub.MatchAll())
		}
		c.RunRounds(5)

		probe := func(base int) float64 {
			// Publishers must be alive and distinct, or an event never
			// leaves its publisher.
			publishers := make([]int, 0, 3)
			for p := base; len(publishers) < 3; p = (p + 1) % n {
				if c.Node(p).Active() {
					publishers = append(publishers, p)
				}
			}
			start := c.Ledger.Snapshot()
			for _, p := range publishers {
				c.Node(p).Publish("probe", nil, nil)
				c.RunRounds(2)
			}
			c.RunRounds(15)
			end := c.Ledger.Snapshot()
			ok, total := 0, 0
			for i := 0; i < n; i++ {
				if !c.Node(i).Active() {
					continue
				}
				total++
				if end[i].Delivered-start[i].Delivered >= uint64(len(publishers)) {
					ok++
				}
			}
			return float64(ok) / float64(total)
		}
		pre := probe(0)

		// Crash 20% and add loss. SampleDistinct replays the historical
		// rejection-sampling draw sequence, so the fixed-seed table is
		// unchanged.
		rng := rand.New(rand.NewSource(opts.Seed + 403))
		for _, id := range workload.SampleDistinct(rng, n, n/5, nil) {
			c.Crash(id)
		}
		c.SetShape(transport.Profile{Loss: 0.10})
		c.RunRounds(10) // let membership digest the failures
		post := probe(3)

		survivors := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if c.Node(i).Active() {
				survivors = append(survivors, i)
			}
		}
		r := c.Ledger.ReportFor(survivors)
		t.AddRow(v.name, pre, post, r.RatioJain)
	}
	return []Table{t}
}

// ExpA6 — §5.2 Q6: "Can we ensure that a peer does not artificially grow
// its contribution...?" One peer pads its gossip with junk; the novelty
// audit separates raw from earned contribution.
func ExpA6(opts Options) []Table {
	n := pick(opts.Small, 64, 128)
	const cheater = 3
	c := core.NewCluster(n, core.Config{
		Mode:   core.ModeContent,
		Fanout: 5,
		Batch:  4,
	}, core.ClusterOptions{Seed: opts.Seed, NetConfig: defaultNet()})
	c.Node(cheater).Cheat = true // pads every gossip message with 512 junk bytes
	for i := 0; i < n; i++ {
		c.Node(i).Subscribe(pubsub.MatchAll())
	}
	c.RunRounds(5)
	rng := rand.New(rand.NewSource(opts.Seed + 404))
	for r := 0; r < pick(opts.Small, 80, 200); r++ {
		c.Node(rng.Intn(n)).Publish("t", nil, make([]byte, 32))
		c.RunRounds(1)
	}
	c.RunRounds(10)

	aw := fairness.Weights{Audited: true}
	var honestRaw, honestAudited, honestUseFrac float64
	honest := 0
	for i := 0; i < n; i++ {
		a := c.Ledger.Account(i)
		if a.MsgsSent[fairness.ClassApp] == 0 {
			continue
		}
		raw := fairness.Contribution(a, fairness.DefaultWeights())
		aud := fairness.Contribution(a, aw)
		frac := 0.0
		if a.UsefulBytes+a.JunkBytes > 0 {
			frac = float64(a.UsefulBytes) / float64(a.UsefulBytes+a.JunkBytes)
		}
		if i == cheater {
			continue
		}
		honestRaw += raw
		honestAudited += aud
		honestUseFrac += frac
		honest++
	}
	ca := c.Ledger.Account(cheater)
	cheatFrac := float64(ca.UsefulBytes) / float64(ca.UsefulBytes+ca.JunkBytes)

	t := Table{
		ID:    "EXP-A6",
		Title: "Raw vs audited contribution: honest mean vs cheater",
		Note:  "raw bytes reward padding; audited (novelty-acknowledged) contribution does not — the cheater's useful fraction collapses",
		Cols:  []string{"class", "raw_contribution", "audited_contribution", "useful_fraction"},
	}
	t.AddRow("honest-mean", honestRaw/float64(honest), honestAudited/float64(honest), honestUseFrac/float64(honest))
	t.AddRow("cheater", fairness.Contribution(ca, fairness.DefaultWeights()), fairness.Contribution(ca, aw), cheatFrac)
	return []Table{t}
}
