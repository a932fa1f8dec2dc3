package experiment

import (
	"fmt"
	"math/rand"

	"fairgossip/internal/balance"
	"fairgossip/internal/core"
	"fairgossip/internal/dam"
	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/stats"
	"fairgossip/internal/structured"
	"fairgossip/internal/workload"
)

// ExpT1 — §4.1: "Scribe sacrifices fairness as inner nodes of a multicast
// [tree] may well have no interest at all in the given topic". Identical
// topic subscriptions run through Scribe-over-Pastry-lite and through
// FairGossip topic groups.
func ExpT1(opts Options) []Table {
	n := pick(opts.Small, 128, 512)
	k := 64 // many sparse topics: trees must route through outsiders
	eventsPerTopic := pick(opts.Small, 10, 30)
	rng := rand.New(rand.NewSource(opts.Seed + 301))
	topics := workload.NewTopics(k, 1.0)

	// One shared subscription pattern.
	subsOf := make(map[string][]int, k)
	nodeSubs := make([][]string, n)
	for i := 0; i < n; i++ {
		count := workload.SubCount(rng, 1, 3)
		nodeSubs[i] = topics.SampleSet(rng, count)
		for _, topic := range nodeSubs[i] {
			subsOf[topic] = append(subsOf[topic], i)
		}
	}

	t := Table{
		ID:    "EXP-T1",
		Title: "Structured (Scribe) vs FairGossip topic groups, same subscriptions",
		Note:  "Scribe: a visible share of tree forwarding done by non-subscribers (near-total for rare topics); topic groups: zero by construction",
		Cols:  []string{"system", "foreign_fwd_pct_all_sends", "foreign_fwd_pct_mean_topic", "ratio_jain", "ratio_cov", "contrib_benefit_corr"},
	}
	detail := Table{
		ID:    "EXP-T1",
		Title: "Scribe tree composition per topic (top 5 topics)",
		Note:  "tree members exceed subscribers; the gap is conscripted relays",
		Cols:  []string{"topic", "subscribers", "tree_members", "uninterested_forwarders"},
	}
	index := Table{
		ID:    "EXP-T1",
		Title: "DKS-style index DHT lookup duty (every subscribe does one lookup)",
		Note:  "§4.1: nodes near popular rendezvous keys suffer — duty is concentrated (high Gini, max >> median)",
		Cols:  []string{"lookups", "duty_max", "duty_median", "duty_gini"},
	}

	// Scribe run, with a DKS-style index lookup preceding every subscribe.
	{
		ring := structured.NewRing(n, opts.Seed)
		led := fairness.NewLedger(n, fairness.DefaultWeights())
		sc := structured.NewScribe(ring, led)
		ixLed := fairness.NewLedger(n, fairness.DefaultWeights())
		ix := structured.NewIndex(ring, ixLed)
		lookups := 0
		for i := 0; i < n; i++ {
			for _, topic := range nodeSubs[i] {
				if _, err := ix.Lookup(i, topic); err != nil {
					panic(err)
				}
				lookups++
				if err := sc.Subscribe(i, topic); err != nil {
					panic(err)
				}
			}
		}
		load := ix.LoadVector()
		qs := stats.Quantiles(load, 0.5, 1)
		index.AddRow(lookups, qs[1], qs[0], stats.Gini(load))
		var foreignSum float64
		var foreignEdges, totalEdges int
		active := 0
		for _, topic := range topics.Names {
			subs := subsOf[topic]
			if len(subs) == 0 {
				continue
			}
			for e := 0; e < eventsPerTopic; e++ {
				if _, err := sc.Publish(subs[rng.Intn(len(subs))], topic, 64); err != nil {
					panic(err)
				}
			}
			foreignSum += sc.ForeignForwardFraction(topic)
			fe, te := sc.ForwardEdgeStats(topic)
			foreignEdges += fe
			totalEdges += te
			active++
		}
		r := led.Report()
		t.AddRow("scribe",
			100*float64(foreignEdges)/float64(totalEdges),
			100*foreignSum/float64(active),
			r.RatioJain, r.RatioCoV, r.ContribBenefitCorr)
		for rank := 0; rank < 5 && rank < k; rank++ {
			topic := topics.Names[rank]
			detail.AddRow(topic, len(subsOf[topic]), len(sc.TreeMembers(topic)),
				len(sc.UninterestedForwarders(topic)))
		}
	}

	// FairGossip topic-group run with the same subscriptions.
	{
		c := core.NewCluster(n, core.Config{Mode: core.ModeTopics, Fanout: 4, Batch: 8},
			core.ClusterOptions{Seed: opts.Seed, NetConfig: defaultNet()})
		for i := 0; i < n; i++ {
			for _, topic := range nodeSubs[i] {
				c.Node(i).Subscribe(pubsub.Topic(topic))
			}
		}
		c.RunRounds(15)
		prng := rand.New(rand.NewSource(opts.Seed + 302))
		for _, topic := range topics.Names {
			subs := subsOf[topic]
			if len(subs) == 0 {
				continue
			}
			for e := 0; e < eventsPerTopic; e++ {
				c.Node(subs[prng.Intn(len(subs))]).Publish(topic, nil, make([]byte, 64))
				if e%4 == 3 {
					c.RunRounds(1)
				}
			}
		}
		c.RunRounds(20)
		r := c.Report()
		// Foreign forwarding is structurally zero in topic groups: only
		// subscribers buffer (and hence forward) a topic's events —
		// verified by core's TestTopicModeFairByStructure.
		t.AddRow("fairgossip-topics", 0.0, 0.0, r.RatioJain, r.RatioCoV, r.ContribBenefitCorr)
	}
	return []Table{t, detail, index}
}

// ExpT2 — §4.2: "a peer in the supertopic performs similar to a broker in
// a client/server architecture". DAM with leaf-only natural interest.
func ExpT2(opts Options) []Table {
	n := pick(opts.Small, 128, 256)
	leaves := 8
	perLeaf := n / (2 * leaves)
	events := pick(opts.Small, 20, 60)

	topics := make([]string, leaves)
	for i := range topics {
		topics[i] = fmt.Sprintf("news.child%d", i)
	}
	h := dam.NewHierarchy(topics...)
	led := fairness.NewLedger(n, fairness.DefaultWeights())
	d := dam.New(h, led, 3, 2, opts.Seed)

	node := 0
	leafOf := make(map[int]string)
	for _, topic := range topics {
		for s := 0; s < perLeaf; s++ {
			if err := d.Subscribe(node, topic); err != nil {
				panic(err)
			}
			leafOf[node] = topic
			node++
		}
	}
	// One natural supertopic subscriber (wants everything).
	super := node
	if err := d.Subscribe(super, "news"); err != nil {
		panic(err)
	}

	rng := rand.New(rand.NewSource(opts.Seed + 303))
	for e := 0; e < events; e++ {
		topic := topics[rng.Intn(leaves)]
		subs := d.Subscribers(topic)
		if _, err := d.Publish(subs[rng.Intn(len(subs))], topic, 64); err != nil {
			panic(err)
		}
	}

	forced := d.ForcedMembers()
	classOf := func(i int) string {
		switch {
		case i == super:
			return "supertopic-subscriber"
		case len(forced[i]) > 0:
			return "forced-bridge"
		case leafOf[i] != "":
			return "leaf-subscriber"
		default:
			return "idle"
		}
	}
	agg := map[string]*struct {
		count            int
		contrib, benefit float64
	}{}
	for i := 0; i < n; i++ {
		cl := classOf(i)
		a, ok := agg[cl]
		if !ok {
			a = &struct {
				count            int
				contrib, benefit float64
			}{}
			agg[cl] = a
		}
		acct := led.Account(i)
		a.count++
		a.contrib += fairness.Contribution(acct, led.Weights())
		a.benefit += fairness.Benefit(acct)
	}
	t := Table{
		ID:    "EXP-T2",
		Title: "Mean contribution and benefit by role",
		Note:  "forced bridges and supertopic members carry every descendant topic: broker-like contribution, leaf-level (or zero extra) benefit",
		Cols:  []string{"role", "nodes", "mean_contribution", "mean_benefit", "mean_ratio"},
	}
	for _, cl := range []string{"leaf-subscriber", "forced-bridge", "supertopic-subscriber", "idle"} {
		a, ok := agg[cl]
		if !ok {
			continue
		}
		mc := a.contrib / float64(a.count)
		mb := a.benefit / float64(a.count)
		ratio := mc
		if mb >= 1 {
			ratio = mc / mb
		}
		t.AddRow(cl, a.count, mc, mb, ratio)
	}
	return []Table{t}
}

// ExpT3 — §5.1: subscription maintenance. Walk-relay burden under a
// subscription storm on a popular versus an unpopular topic, and how
// adaptation compensates relays for their infrastructure work.
func ExpT3(opts Options) []Table {
	n := pick(opts.Small, 128, 384)
	joiners := pick(opts.Small, 24, 64)

	burden := Table{
		ID:    "EXP-T3",
		Title: "Walk-relay burden during a subscription storm",
		Note:  "relays are hit unevenly (max >> mean); storm rate, not group size, drives the burden",
		Cols:  []string{"scenario", "walks_relayed_total", "relay_max", "relay_mean", "relay_cov"},
	}
	share := Table{
		ID:    "EXP-T3",
		Title: "Maintenance share of contribution by role (storm scenario)",
		Note:  "non-subscribers contribute pure maintenance (infra ~100% of their work) — unrequited work the system never pays back",
		Cols:  []string{"role", "nodes", "mean_infra_bytes", "mean_app_bytes", "infra_share_pct"},
	}

	for _, sc := range []struct {
		name      string
		slowJoins bool
	}{{"storm-join", false}, {"trickle-join", true}} {
		c := core.NewCluster(n, core.Config{
			Mode: core.ModeTopics, Fanout: 4, Batch: 8,
			Membership: core.MemberFull, // isolate walk relays from shuffle noise
		}, core.ClusterOptions{Seed: opts.Seed, NetConfig: defaultNet()})
		c.Node(0).Subscribe(pubsub.Topic("storm"))
		c.RunRounds(10)
		for j := 1; j <= joiners; j++ {
			c.Node(j).Subscribe(pubsub.Topic("storm"))
			if sc.slowJoins {
				c.RunRounds(4)
			}
		}
		c.RunRounds(20)
		relays := make([]float64, 0, n)
		var total uint64
		for i := joiners + 1; i < n; i++ {
			w := c.Node(i).WalkRelays()
			total += w
			relays = append(relays, float64(w))
		}
		burden.AddRow(sc.name, total, stats.Quantile(relays, 1), stats.Mean(relays), stats.CoV(relays))

		if sc.slowJoins {
			continue // role table only needed once
		}
		// Publish some traffic so subscribers also do app work.
		prng := rand.New(rand.NewSource(opts.Seed + 304))
		for e := 0; e < 20; e++ {
			c.Node(prng.Intn(joiners+1)).Publish("storm", nil, make([]byte, 64))
			c.RunRounds(2)
		}
		type roleAgg struct {
			count      int
			infra, app float64
		}
		agg := map[string]*roleAgg{}
		for i := 0; i < n; i++ {
			role := "outsider-relay"
			if i <= joiners {
				role = "subscriber"
			} else if c.Node(i).WalkRelays() == 0 {
				role = "outsider-untouched"
			}
			a, ok := agg[role]
			if !ok {
				a = &roleAgg{}
				agg[role] = a
			}
			acct := c.Ledger.Account(i)
			a.count++
			a.infra += float64(acct.BytesSent[fairness.ClassInfra])
			a.app += float64(acct.BytesSent[fairness.ClassApp])
		}
		for _, role := range []string{"subscriber", "outsider-relay", "outsider-untouched"} {
			a, ok := agg[role]
			if !ok {
				continue
			}
			mi, ma := a.infra/float64(a.count), a.app/float64(a.count)
			sharePct := 0.0
			if mi+ma > 0 {
				sharePct = 100 * mi / (mi + ma)
			}
			share.AddRow(role, a.count, mi, ma, sharePct)
		}
	}
	return []Table{burden, share}
}

// ExpT4 — §3.1 vs §3.2: perfectly balanced work is not fairness.
func ExpT4(opts Options) []Table {
	n := pick(opts.Small, 64, 256)
	events := 10 * n
	t := Table{
		ID:    "EXP-T4",
		Title: "Balanced forwarding vs fairness-aware gossip under graded interest",
		Note:  "balanced: work CoV ~ 0 but ratios wildly unequal; adaptive gossip: work tracks benefit instead",
		Cols:  []string{"system", "work_cov", "ratio_jain", "contrib_benefit_corr"},
	}

	// Balanced baseline: node i wants ~ i/n of events.
	{
		led := fairness.NewLedger(n, fairness.DefaultWeights())
		b := balance.New(n, 3, led)
		for k := 0; k < events; k++ {
			k := k
			b.Disseminate(k%n, 64, func(i int) bool { return (i+k)%n < i })
		}
		r := led.Report()
		t.AddRow("splitstream-balanced", r.WorkCoV, r.RatioJain, r.ContribBenefitCorr)
	}

	// FairGossip adaptive with graded selectivity.
	{
		stocks := workload.NewStocks(16)
		c := core.NewCluster(n, core.Config{
			Mode:       core.ModeContent,
			Fanout:     5,
			Batch:      8,
			Controller: core.ControllerSpec{Kind: core.ControllerAIMD, TargetRatio: 3000},
		}, core.ClusterOptions{Seed: opts.Seed, NetConfig: defaultNet()})
		for i := 0; i < n; i++ {
			sel := 0.01 + 0.6*float64(i)/float64(n-1)
			c.Node(i).Subscribe(stocks.FilterWithSelectivity(sel))
		}
		c.RunRounds(5)
		rng := rand.New(rand.NewSource(opts.Seed + 305))
		rounds := pick(opts.Small, 120, 250)
		for r := 0; r < rounds; r++ {
			c.Node(rng.Intn(n)).Publish("ticks", stocks.Event(rng), nil)
			c.RunRounds(1)
		}
		c.RunRounds(10)
		r := c.Report()
		t.AddRow("fairgossip-adaptive", r.WorkCoV, r.RatioJain, r.ContribBenefitCorr)
	}
	return []Table{t}
}

// ExpT5 — §1/§6: "unfair distribution of workload can lead to a high
// churn ... processes abruptly disconnect whenever they perceive to
// perform too much work". A rage-quit policy drives churn from measured
// window ratios; adaptation defuses it.
func ExpT5(opts Options) []Table {
	const repairPenalty = 200 // §3.2 instability charge per rejoin
	n := pick(opts.Small, 96, 256)
	phases := pick(opts.Small, 16, 36)
	t := Table{
		ID:    "EXP-T5",
		Title: "Unfairness-triggered churn and its reliability cost",
		Note:  "static: the low-benefit minority rage-quits repeatedly and misses its events; adaptive: ratios equalise, churn stops, delivery recovers",
		Cols:  []string{"variant", "rage_quits", "light_node_downtime_pct", "light_delivery_ratio", "window_ratio_cov_final"},
	}
	for _, v := range []struct {
		name string
		spec core.ControllerSpec
	}{
		{"static", core.ControllerSpec{Kind: core.ControllerStatic}},
		{"adaptive", core.ControllerSpec{Kind: core.ControllerAIMD, TargetRatio: 2500}},
	} {
		stocks := workload.NewStocks(16)
		c := core.NewCluster(n, core.Config{
			Mode:       core.ModeContent,
			Fanout:     5,
			Batch:      8,
			Controller: v.spec,
		}, core.ClusterOptions{Seed: opts.Seed, NetConfig: defaultNet()})
		// A heavy-interest majority and a light-interest minority: under
		// static gossip the minority works as much as everyone while
		// benefiting rarely — their ratios are the outliers.
		lightFilter := stocks.FilterWithSelectivity(0.05)
		light := make([]int, 0, n/4)
		for i := 0; i < n; i++ {
			if i%4 == 0 {
				c.Node(i).Subscribe(lightFilter)
				light = append(light, i)
			} else {
				c.Node(i).Subscribe(stocks.FilterWithSelectivity(0.5))
			}
		}
		c.RunRounds(5)
		rng := rand.New(rand.NewSource(opts.Seed + 306))
		lightDown := 0
		lightMatches := 0
		prev := c.Ledger.Snapshot()
		var lastCoV float64
		rq := workload.NewRageQuit(2.5, 2, 3)
		quits := 0
		for phase := 0; phase < phases; phase++ {
			for r := 0; r < 10; r++ {
				attrs := stocks.Event(rng)
				ev := pubsub.Event{Topic: "ticks", Attrs: attrs}
				if lightFilter.Match(&ev) {
					lightMatches++
				}
				c.Node(rng.Intn(n)).Publish("ticks", attrs, nil)
				c.RunRounds(1)
			}
			for _, id := range light {
				if !c.Node(id).Active() {
					lightDown++
				}
			}
			for _, id := range rq.Rejoins(phase) {
				c.Rejoin(id)
				c.Ledger.AddChurnPenalty(id, repairPenalty)
			}
			cur := c.Ledger.Snapshot()
			ratios := make([]float64, n)
			for i := range ratios {
				ratios[i] = fairness.Ratio(fairness.Delta(cur[i], prev[i]), c.Ledger.Weights())
			}
			prev = cur
			lastCoV = stats.CoV(ratios)
			if phase < 3 {
				continue // warm-up before anyone judges fairness
			}
			quit, _ := rq.Check(phase, ratios, func(i int) bool { return c.Node(i).Active() })
			for _, id := range quit {
				c.Crash(id)
			}
			quits += len(quit)
		}
		// Light nodes' delivery across the whole run: every quit window
		// loses them matching events for good.
		var lightDelivered uint64
		for _, id := range light {
			lightDelivered += c.Ledger.Account(id).Delivered
		}
		expect := float64(lightMatches * len(light))
		ratio := 0.0
		if expect > 0 {
			ratio = float64(lightDelivered) / expect
		}
		t.AddRow(v.name, quits,
			100*float64(lightDown)/float64(len(light)*phases), ratio, lastCoV)
	}
	return []Table{t}
}
