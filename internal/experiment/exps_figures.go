package experiment

import (
	"math"
	"math/rand"
	"time"

	"fairgossip/internal/adaptive"
	"fairgossip/internal/core"
	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/workload"
)

// ExpF1 — Fig. 1: "the ratio contribution/benefit of each peer must be
// equivalent to be considered fair." Heterogeneous topic interest under
// classic static gossip versus the adaptive controllers.
func ExpF1(opts Options) []Table {
	n := pick(opts.Small, 128, 512)
	rounds := pick(opts.Small, 120, 300)
	variants := []struct {
		name string
		spec core.ControllerSpec
	}{
		{"static", core.ControllerSpec{Kind: core.ControllerStatic}},
		{"aimd", core.ControllerSpec{Kind: core.ControllerAIMD, TargetRatio: 2000}},
		{"proportional", core.ControllerSpec{Kind: core.ControllerProportional, TargetRatio: 2000}},
	}
	t := Table{
		ID:    "EXP-F1",
		Title: "Per-peer contribution/benefit ratio distribution",
		Note:  "static gossip: high ratio spread (low Jain) under heterogeneous interest; adaptive: Jain -> 1, work tracks benefit",
		Cols:  []string{"variant", "ratio_jain", "ratio_cov", "ratio_gini", "contrib_benefit_corr", "unrequited_pct", "ratio_p50", "ratio_p90"},
	}
	for _, v := range variants {
		s := newTopicScenario(n, 64, 16, core.Config{
			Mode:       core.ModeContent,
			Fanout:     int(math.Ceil(math.Log(float64(n)))) + 1,
			Batch:      8,
			Controller: v.spec,
		}, opts.Seed)
		s.cluster.RunRounds(5)
		s.publishRounds(rounds, 1, 64)
		s.cluster.RunRounds(10)
		r := s.cluster.Report()
		t.AddRow(v.name, r.RatioJain, r.RatioCoV, r.RatioGini, r.ContribBenefitCorr,
			r.UnrequitedFrac*100, r.RatioP50, r.RatioP90)
	}
	return []Table{t}
}

// ExpF2 — Fig. 2: topic-based accounting. Contribution (published +
// forwarded messages) against benefit (deliveries + filters): flat
// content-mode gossip versus per-topic groups on identical subscriptions.
func ExpF2(opts Options) []Table {
	n := pick(opts.Small, 96, 256)
	rounds := pick(opts.Small, 100, 250)
	t := Table{
		ID:    "EXP-F2",
		Title: "Flat gossip vs per-topic groups, identical subscriptions",
		Note:  "topic groups: unrequited work -> 0, contribution correlates with benefit, less total traffic; flat: everyone pays for everything",
		Cols:  []string{"scheme", "unrequited_pct", "contrib_benefit_corr", "ratio_jain", "app_mbytes_total", "deliveries"},
	}
	for _, mode := range []struct {
		name string
		m    core.Mode
	}{{"flat-gossip", core.ModeContent}, {"topic-groups", core.ModeTopics}} {
		s := newTopicScenario(n, 32, 8, core.Config{
			Mode:   mode.m,
			Fanout: 5,
			Batch:  8,
		}, opts.Seed)
		s.cluster.RunRounds(15) // group formation
		s.publishRounds(rounds, 1, 64)
		s.cluster.RunRounds(10)
		r := s.cluster.Report()
		var appBytes uint64
		for i := 0; i < n; i++ {
			appBytes += s.cluster.Ledger.Account(i).BytesSent[fairness.ClassApp]
		}
		t.AddRow(mode.name, r.UnrequitedFrac*100, r.ContribBenefitCorr, r.RatioJain,
			float64(appBytes)/1e6, s.cluster.DeliveredTotal())
	}
	return []Table{t}
}

// ExpF3 — Fig. 3: the expressive-selection levers. Content-based filters
// with widely varying selectivity; adapting the fanout, the gossip
// message size, or both. Also reports the convergence trajectory.
func ExpF3(opts Options) []Table {
	n := pick(opts.Small, 96, 192)
	phases := pick(opts.Small, 10, 20)
	roundsPerPhase := 10
	variants := []struct {
		name string
		spec core.ControllerSpec
	}{
		{"static", core.ControllerSpec{Kind: core.ControllerStatic}},
		{"adaptive-fanout", core.ControllerSpec{Kind: core.ControllerAIMD, Lever: adaptive.LeverFanout, TargetRatio: 3000}},
		{"adaptive-batch", core.ControllerSpec{Kind: core.ControllerAIMD, Lever: adaptive.LeverBatch, TargetRatio: 3000}},
		{"adaptive-both", core.ControllerSpec{Kind: core.ControllerAIMD, Lever: adaptive.LeverBoth, TargetRatio: 3000}},
	}
	conv := Table{
		ID:    "EXP-F3",
		Title: "Window-fairness (Jain) trajectory while adapting",
		Note:  "batch-adapting variants hold a window Jain about 0.1 above static from the first window on; no variant climbs — every column follows the publish mix — and fanout alone tracks static",
		Cols:  []string{"round"},
	}
	final := Table{
		ID:    "EXP-F3",
		Title: "Final fairness per lever",
		Note:  "the batch lever carries the gain (about +0.1 Jain, contribution tracks benefit); the fanout lever buys nothing alone and next to nothing on top; deliveries within 1% of static",
		Cols:  []string{"variant", "ratio_jain", "ratio_cov", "contrib_benefit_corr", "deliveries"},
	}
	series := make([][]float64, len(variants))
	for vi, v := range variants {
		conv.Cols = append(conv.Cols, v.name)
		stocks := workload.NewStocks(16)
		rng := rand.New(rand.NewSource(opts.Seed + 500))
		c := core.NewCluster(n, core.Config{
			Mode: core.ModeContent,
			// One above the floor, so the fanout lever starts inside its
			// limits with room to move both ways.
			Fanout:     adaptive.DefaultLimits(n).FanoutMin + 1,
			Batch:      8,
			Controller: v.spec,
		}, core.ClusterOptions{Seed: opts.Seed, NetConfig: defaultNet()})
		// Log-spread selectivities: 1%..60%.
		for i := 0; i < n; i++ {
			frac := float64(i) / float64(n-1)
			sel := 0.01 * math.Pow(60, frac)
			c.Node(i).Subscribe(stocks.FilterWithSelectivity(sel))
		}
		c.RunRounds(5)
		prev := c.Ledger.Snapshot()
		for p := 0; p < phases; p++ {
			for r := 0; r < roundsPerPhase; r++ {
				c.Node(rng.Intn(n)).Publish("ticks", stocks.Event(rng), nil)
				c.RunRounds(1)
			}
			cur := c.Ledger.Snapshot()
			wr := windowReport(prev, cur, c.Ledger.Weights())
			series[vi] = append(series[vi], wr.RatioJain)
			prev = cur
		}
		r := c.Report()
		final.AddRow(v.name, r.RatioJain, r.RatioCoV, r.ContribBenefitCorr, c.DeliveredTotal())
	}
	for p := 0; p < phases; p++ {
		row := make([]any, 0, len(variants)+1)
		row = append(row, (p+1)*roundsPerPhase)
		for vi := range variants {
			row = append(row, series[vi][p])
		}
		conv.AddRow(row...)
	}
	return []Table{conv, final}
}

// ExpF4 — Fig. 4: the basic push gossip algorithm itself. Delivery ratio
// versus fanout (the ln n threshold), rounds to 99% coverage versus n,
// and loss tolerance, on the classic configuration (classicCluster).
func ExpF4(opts Options) []Table {
	nBase := pick(opts.Small, 128, 512)
	seeds := []int64{opts.Seed, opts.Seed + 1, opts.Seed + 2}

	sweep := Table{
		ID:    "EXP-F4",
		Title: "Delivery ratio vs fanout (infect-and-die, single event)",
		Note:  "sharp reliability transition near fanout ~ ln(n); beyond it delivery ~ 1",
		Cols:  []string{"fanout", "delivery_ratio", "n"},
	}
	for f := 1; f <= 10; f++ {
		var sum float64
		for _, seed := range seeds {
			sum += runClassicDissemination(seed, nBase, f, 15, 1, 0)
		}
		sweep.AddRow(f, sum/float64(len(seeds)), nBase)
	}

	growth := Table{
		ID:    "EXP-F4",
		Title: "Rounds to 99% coverage vs system size (fanout = ceil(ln n)+1)",
		Note:  "logarithmic growth in n",
		Cols:  []string{"n", "fanout", "rounds_to_99pct"},
	}
	sizes := []int{64, 128, 256}
	if !opts.Small {
		sizes = append(sizes, 512, 1024)
	}
	for _, n := range sizes {
		f := int(math.Ceil(math.Log(float64(n)))) + 1
		var sum float64
		for _, seed := range seeds {
			sum += float64(roundsToCoverage(seed, n, f, 0.99))
		}
		growth.AddRow(n, f, sum/float64(len(seeds)))
	}

	loss := Table{
		ID:    "EXP-F4",
		Title: "Delivery ratio under message loss (fanout = ceil(ln n)+3)",
		Note:  "gossip holds delivery near 1 despite 20% loss",
		Cols:  []string{"loss_pct", "delivery_ratio"},
	}
	f := int(math.Ceil(math.Log(float64(nBase)))) + 3
	for _, p := range []float64{0, 0.05, 0.10, 0.20} {
		var sum float64
		for _, seed := range seeds {
			sum += runClassicDissemination(seed, nBase, f, 15, 1, p)
		}
		loss.AddRow(p*100, sum/float64(len(seeds)))
	}
	return []Table{sweep, growth, loss}
}

// classicCluster is Fig. 4's push algorithm as a core configuration —
// FairGossip with the §5.2 levers pinned: content mode over the full
// sampler, static batch 4, every node subscribed to everything, one event
// published at node 0. A link takes a tenth of a round, as under the
// classic peer this replaced (at a hundredth an event hops several times
// in one jittered round). cfg brings fanout, TTL and push-pull.
func classicCluster(seed int64, n int, cfg core.Config, loss float64) *core.Cluster {
	cfg.Mode, cfg.Membership, cfg.Batch = core.ModeContent, core.MemberFull, 4
	c := core.NewCluster(n, cfg, core.ClusterOptions{Seed: seed, NetConfig: simnet.Config{
		Latency: simnet.ConstantLatency(10 * time.Millisecond),
		Loss:    loss,
	}})
	for _, nd := range c.Nodes {
		nd.Subscribe(pubsub.MatchAll())
	}
	c.Node(0).Publish("t", nil, nil)
	return c
}

// coverage is the share of a classic cluster's nodes that delivered its event.
func coverage(c *core.Cluster) float64 {
	all := make([]int, c.N())
	for i := range all {
		all[i] = i
	}
	return c.DeliveryRatio(all, 1)
}

// runClassicDissemination returns the classic configuration's coverage
// after `rounds` rounds. maxAge 1 gives infect-and-die semantics (each
// node forwards an event for exactly one round) — the regime where the
// ln(n) fanout threshold is visible.
func runClassicDissemination(seed int64, n, fanout, rounds, maxAge int, loss float64) float64 {
	c := classicCluster(seed, n, core.Config{Fanout: fanout, BufferMaxAge: maxAge}, loss)
	c.RunRounds(rounds)
	return coverage(c)
}

// roundsToCoverage steps rounds one at a time until coverage of a single
// event reaches the target, up to a cap of 60 rounds.
func roundsToCoverage(seed int64, n, fanout int, target float64) int {
	c := classicCluster(seed, n, core.Config{Fanout: fanout, BufferMaxAge: 61}, 0)
	for r := 1; r <= 60; r++ {
		c.RunRounds(1)
		if coverage(c) >= target {
			return r
		}
	}
	return 60
}
