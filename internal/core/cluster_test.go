package core

import (
	"testing"
	"time"

	"fairgossip/internal/fairness"
	"fairgossip/internal/protocol"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

func contentCluster(n int, seed int64, spec ControllerSpec) *Cluster {
	return NewCluster(n, Config{
		Mode:       ModeContent,
		Controller: spec,
		Fanout:     5,
		Batch:      8,
	}, ClusterOptions{
		Seed:      seed,
		NetConfig: simnet.Config{Latency: simnet.ConstantLatency(2 * time.Millisecond)},
	})
}

func TestContentDisseminationReachesEveryone(t *testing.T) {
	c := contentCluster(64, 1, ControllerSpec{Kind: ControllerStatic})
	for _, nd := range c.Nodes {
		nd.Subscribe(pubsub.MatchAll())
	}
	c.RunRounds(5) // let cyclon warm up
	c.Node(0).Publish("news", nil, []byte("payload"))
	c.RunRounds(20)

	all := make([]int, len(c.Nodes))
	for i := range all {
		all[i] = i
	}
	if ratio := c.DeliveryRatio(all, 1); ratio < 0.99 {
		t.Fatalf("delivery ratio %.3f, want ≈1", ratio)
	}
}

func TestContentModeUninterestedStillForward(t *testing.T) {
	// The classic-gossip pathology (§4.2): non-interested nodes carry
	// app traffic anyway.
	c := contentCluster(48, 2, ControllerSpec{Kind: ControllerStatic})
	for i, nd := range c.Nodes {
		if i < 8 {
			nd.Subscribe(pubsub.Topic("hot"))
		}
	}
	c.RunRounds(5)
	for i := 0; i < 10; i++ {
		c.Node(0).Publish("hot", nil, nil)
		c.RunRounds(2)
	}
	c.RunRounds(10)

	forwarders := 0
	for i := 8; i < 48; i++ {
		a := c.Ledger.Account(i)
		if a.Delivered != 0 {
			t.Fatalf("uninterested node %d delivered", i)
		}
		if a.BytesSent[fairness.ClassApp] > 0 {
			forwarders++
		}
	}
	if forwarders < 30 {
		t.Fatalf("only %d/40 uninterested nodes forwarded — not classic gossip", forwarders)
	}
}

func TestAdaptiveImprovesFairnessUnderSkewedInterest(t *testing.T) {
	// EXP-F1 in miniature: half the nodes interested in everything, half
	// in (almost) nothing. Static gossip spreads work evenly → unfair
	// ratios; the adaptive controller must narrow the spread.
	run := func(spec ControllerSpec) fairness.Report {
		c := contentCluster(64, 3, spec)
		for i, nd := range c.Nodes {
			if i%2 == 0 {
				nd.Subscribe(pubsub.MatchAll())
			} else {
				nd.Subscribe(pubsub.Topic("rare-topic-never-published"))
			}
		}
		c.RunRounds(5)
		for r := 0; r < 60; r++ {
			c.Node(r%64).Publish("bulk", nil, make([]byte, 32))
			c.RunRounds(1)
		}
		c.RunRounds(10)
		return c.Report()
	}
	static := run(ControllerSpec{Kind: ControllerStatic})
	adaptive := run(ControllerSpec{Kind: ControllerAIMD, TargetRatio: 2000})

	if adaptive.RatioJain <= static.RatioJain {
		t.Fatalf("adaptive Jain %.3f not better than static %.3f",
			adaptive.RatioJain, static.RatioJain)
	}
	if adaptive.ContribBenefitCorr < 0.3 || adaptive.ContribBenefitCorr <= static.ContribBenefitCorr {
		t.Fatalf("adaptive corr %.3f (static %.3f): adaptation did not align work with benefit",
			adaptive.ContribBenefitCorr, static.ContribBenefitCorr)
	}
}

func TestAdaptiveFanoutActuallyMoves(t *testing.T) {
	c := contentCluster(64, 4, ControllerSpec{Kind: ControllerAIMD, TargetRatio: 50})
	for i, nd := range c.Nodes {
		if i%4 == 0 {
			nd.Subscribe(pubsub.MatchAll())
		} else {
			nd.Subscribe(pubsub.Topic("nothing"))
		}
	}
	c.RunRounds(5)
	initial := c.Node(1).Fanout()*1000 + c.Node(1).Batch()
	for r := 0; r < 20; r++ {
		c.Node(0).Publish("x", nil, make([]byte, 64))
		c.RunRounds(3)
	}
	moved := false
	for _, nd := range c.Nodes {
		if nd.Fanout()*1000+nd.Batch() != initial {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("no node's levers moved under adaptation")
	}
}

func TestClusterDeterminism(t *testing.T) {
	run := func() (uint64, fairness.Report) {
		c := contentCluster(32, 42, ControllerSpec{Kind: ControllerAIMD, TargetRatio: 100})
		for _, nd := range c.Nodes {
			nd.Subscribe(pubsub.MatchAll())
		}
		c.RunRounds(5)
		for i := 0; i < 5; i++ {
			c.Node(i).Publish("t", nil, nil)
		}
		c.RunRounds(20)
		return c.DeliveredTotal(), c.Report()
	}
	d1, r1 := run()
	d2, r2 := run()
	if d1 != d2 {
		t.Fatalf("delivered totals differ: %d vs %d", d1, d2)
	}
	if r1.RatioJain != r2.RatioJain || r1.WorkCoV != r2.WorkCoV {
		t.Fatalf("reports differ: %+v vs %+v", r1, r2)
	}
}

func TestClusterStartStopIdempotent(t *testing.T) {
	c := contentCluster(8, 5, ControllerSpec{Kind: ControllerStatic})
	c.Start()
	c.Start() // no double tickers
	if len(c.shards[0].tickers) != 8 {
		t.Fatalf("tickers = %d, want 8", len(c.shards[0].tickers))
	}
	c.Stop()
	if len(c.shards[0].tickers) != 0 {
		t.Fatal("stop did not clear tickers")
	}
	c.RunRounds(1) // restarts lazily
	if len(c.shards[0].tickers) != 8 {
		t.Fatal("RunRounds did not restart")
	}
}

func TestDeliveryRatioHelper(t *testing.T) {
	c := contentCluster(4, 6, ControllerSpec{Kind: ControllerStatic})
	if got := c.DeliveryRatio(nil, 1); got != 1 {
		t.Fatalf("empty interested = %v", got)
	}
	c.Node(0).Subscribe(pubsub.MatchAll())
	c.Node(0).Publish("t", nil, nil)
	if got := c.DeliveryRatio([]int{0, 1}, 1); got != 0.5 {
		t.Fatalf("ratio = %v, want 0.5", got)
	}
}

func TestFullMembershipMode(t *testing.T) {
	c := NewCluster(32, Config{
		Mode:       ModeContent,
		Membership: MemberFull,
		Fanout:     5,
	}, ClusterOptions{Seed: 7})
	for _, nd := range c.Nodes {
		nd.Subscribe(pubsub.MatchAll())
	}
	c.Node(0).Publish("t", nil, nil)
	c.RunRounds(15)
	all := make([]int, 32)
	for i := range all {
		all[i] = i
	}
	if ratio := c.DeliveryRatio(all, 1); ratio < 0.99 {
		t.Fatalf("full-membership delivery %.3f", ratio)
	}
	// No infra traffic with the free sampler.
	for i := range c.Nodes {
		if c.Ledger.Account(i).BytesSent[fairness.ClassInfra] != 0 {
			t.Fatal("MemberFull should charge no infrastructure traffic")
		}
	}
}

func TestCyclonGeneratesInfraTraffic(t *testing.T) {
	c := contentCluster(32, 8, ControllerSpec{Kind: ControllerStatic})
	c.RunRounds(20)
	withInfra := 0
	for i := range c.Nodes {
		if c.Ledger.Account(i).BytesSent[fairness.ClassInfra] > 0 {
			withInfra++
		}
	}
	if withInfra < 30 {
		t.Fatalf("only %d/32 nodes paid membership costs", withInfra)
	}
}

// TestClusterJoinMidRun: a node joining a running cluster grows the
// ledger, gets a round ticker, integrates into the overlay through a
// charged join announcement, and both sends and receives events.
func TestClusterJoinMidRun(t *testing.T) {
	t.Run("cyclon", func(t *testing.T) {
		c := NewCluster(16, Config{Mode: ModeContent, Fanout: 5, Batch: 8}, ClusterOptions{
			Seed:      21,
			NetConfig: simnet.Config{Latency: simnet.ConstantLatency(2 * time.Millisecond)},
		})
		for _, nd := range c.Nodes {
			nd.Subscribe(pubsub.MatchAll())
		}
		c.RunRounds(8)
		id, err := c.Join(3)
		if err != nil || int(id) != 16 || len(c.Nodes) != 17 || c.Ledger.Len() != 17 {
			t.Fatalf("join bookkeeping: id %d (%v), %d nodes, ledger %d", id, err, len(c.Nodes), c.Ledger.Len())
		}
		if got := c.Ledger.Account(int(id)).MsgsSent[fairness.ClassInfra]; got != 1 {
			t.Fatalf("joiner paid for %d infrastructure messages at Join, want its one announcement", got)
		}
		joiner := c.Node(int(id))
		joiner.Subscribe(pubsub.MatchAll())
		c.RunRounds(8) // let the joiner's address spread
		c.Node(5).Publish("to-the-joiner", nil, []byte("x"))
		c.RunRounds(20)
		if got := c.Ledger.Account(int(id)).Delivered; got != 1 {
			t.Fatalf("joiner delivered %d of 1 events published after it joined", got)
		}
		joiner.Publish("from-the-joiner", nil, []byte("y"))
		c.RunRounds(20)
		all := make([]int, len(c.Nodes))
		for i := range all {
			all[i] = i
		}
		if ratio := c.DeliveryRatio(all, 2); ratio < 0.99 {
			t.Fatalf("delivery ratio %.3f after joiner published, want ≈1", ratio)
		}
	})
}

// TestRejoinBootsThroughLowestUpNode: Cluster.Rejoin announces the
// rejoiner to the lowest-numbered other node that is up — never to
// itself, never to a node that is down — and that node alone answers.
// On two shards too, where the seed may live on the other shard.
func TestRejoinBootsThroughLowestUpNode(t *testing.T) {
	for _, tc := range []struct {
		down         []int
		rejoin, seed int
	}{
		{down: []int{5}, rejoin: 5, seed: 0},
		{down: []int{0}, rejoin: 0, seed: 1},          // not itself
		{down: []int{0, 1, 2, 4}, rejoin: 1, seed: 3}, // not a down node
		{down: []int{0, 1, 2, 3, 4}, rejoin: 2, seed: 5},
	} {
		for _, shards := range []int{1, 2} {
			c := NewShardedCluster(8, shards, Config{Mode: ModeContent}, ClusterOptions{Seed: 7})
			for _, id := range tc.down {
				c.Crash(id)
			}
			before := c.Ledger.Snapshot()
			if !c.Rejoin(tc.rejoin) || !c.Up(tc.rejoin) {
				t.Fatalf("down %v, shards %d: node %d not up after Rejoin", tc.down, shards, tc.rejoin)
			}
			c.Drain()
			if tot := c.TotalTraffic(); tot.MsgsSent != 2 || tot.Dropped != 0 {
				t.Errorf("down %v, shards %d: rejoining %d sent %d messages, %d dropped; want the announcement and its answer",
					tc.down, shards, tc.rejoin, tot.MsgsSent, tot.Dropped)
			}
			for i := range c.Nodes {
				answered := c.Ledger.Account(i).MsgsSent[fairness.ClassInfra] > before[i].MsgsSent[fairness.ClassInfra]
				if i != tc.rejoin && answered != (i == tc.seed) {
					t.Errorf("down %v, shards %d: rejoining %d, node %d answered %v; want the seed %d alone",
						tc.down, shards, tc.rejoin, i, answered, tc.seed)
				}
			}
		}
	}
}

// TestClusterJoinRejectsWhatCannotBeIntroduced: a seed that names no
// node, and a cluster on the full sampler (whose population is fixed),
// are refused with nothing grown — the joiner could never be reached.
// A full-sampler node's Rejoin announces to nobody.
func TestClusterJoinRejectsWhatCannotBeIntroduced(t *testing.T) {
	c := contentCluster(8, 3, ControllerSpec{Kind: ControllerStatic})
	for _, seed := range []int{-1, 8} {
		if id, err := c.Join(seed); err == nil {
			t.Errorf("Join(%d) admitted node %d through a seed that does not exist", seed, id)
		}
	}
	full := NewCluster(8, Config{Mode: ModeContent, Membership: MemberFull}, ClusterOptions{Seed: 3})
	if id, err := full.Join(0); err == nil {
		t.Errorf("a full-sampler cluster admitted node %d nobody will ever sample", id)
	}
	for _, cl := range []*Cluster{c, full} {
		if len(cl.Nodes) != 8 || cl.Ledger.Len() != 8 {
			t.Errorf("a refused join grew the cluster to %d nodes, ledger %d", len(cl.Nodes), cl.Ledger.Len())
		}
	}
	full.Crash(2)
	full.Rejoin(2)
	if got := full.Ledger.Account(2).MsgsSent[fairness.ClassInfra]; got != 0 || !full.Node(2).Active() {
		t.Errorf("full-sampler rejoin: %d infrastructure messages, active %v", got, full.Node(2).Active())
	}
}

// viewsHolding counts the up nodes whose view holds id.
func viewsHolding(c *Cluster, id simnet.NodeID) int {
	n := 0
	for _, nd := range c.Nodes {
		if nd.Active() && nd.View().Contains(id) {
			n++
		}
	}
	return n
}

// TestDetectorScrubsCrashed is live.TestLiveDetectorEvictsCrashed under
// virtual time: a node that crashes without notice is probed out of every
// up node's view by its silence alone, and stays out. At this seed the
// last view is clean 12 rounds after the crash; the budget is the
// scenario table's 2·N.
func TestDetectorScrubsCrashed(t *testing.T) {
	const n = 32
	c := NewCluster(n, Config{Mode: ModeContent, ShuffleEvery: 1}, ClusterOptions{Seed: 52})
	c.RunRounds(10)
	if viewsHolding(c, 0) == 0 {
		t.Fatal("nobody holds node 0 before the crash: the test checks nothing")
	}
	c.Crash(0)
	rounds := 0
	for ; viewsHolding(c, 0) > 0; rounds++ {
		if rounds == 2*n {
			t.Fatalf("%d views still hold the crashed node after %d rounds", viewsHolding(c, 0), rounds)
		}
		c.RunRounds(1)
	}
	t.Logf("views clean %d rounds after the crash", rounds)
	// Nobody holds the address, so nobody can re-offer it — also once
	// every quarantine has expired.
	c.RunRounds(protocol.QuarantineRounds + 2*n)
	if got := viewsHolding(c, 0); got != 0 {
		t.Fatalf("the dead address resurfaced in %d views", got)
	}
}

// TestJoinerGivesUpOnDeadSeed is live.TestLiveJoinGiveUpBounded under
// virtual time: a joiner whose seed never answers pays for its
// announcement, for the EvictStrikes shuffle offers that probe the seed
// out of its view, for JoinAttempts backed-off re-announcements — and
// then for nothing more.
func TestJoinerGivesUpOnDeadSeed(t *testing.T) {
	c := NewCluster(4, Config{Mode: ModeContent, ShuffleEvery: 1}, ClusterOptions{Seed: 53})
	c.RunRounds(2)
	c.Crash(1)
	id, err := c.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	joiner := c.Node(int(id))
	infra := func() uint64 { return c.Ledger.Account(int(id)).MsgsSent[fairness.ClassInfra] }
	rounds := 0
	for ; !joiner.JoinFailed(); rounds++ {
		if rounds == 1000 {
			t.Fatalf("still announcing after %d rounds (%d infrastructure messages)", rounds, infra())
		}
		c.RunRounds(1)
	}
	want := uint64(1 + protocol.EvictStrikes + protocol.JoinAttempts)
	if got := infra(); got != want {
		t.Errorf("joiner sent %d infrastructure messages, want 1 + EvictStrikes + JoinAttempts = %d", got, want)
	}
	if most := protocol.EvictStrikes + 1 + protocol.JoinAttempts*2*protocol.JoinBackoffCap; rounds > most {
		t.Errorf("gave up after %d rounds, back-off allows at most %d", rounds, most)
	}
	c.RunRounds(100)
	if got := infra(); got != want || !joiner.JoinFailed() || joiner.View().Len() != 0 {
		t.Errorf("after giving up: %d infrastructure messages (want %d), failed %v, view %v", got, want, joiner.JoinFailed(), joiner.View().IDs())
	}
}

// TestClusterJoinDeterminism: joins preserve the simulator's
// fixed-seed determinism.
func TestClusterJoinDeterminism(t *testing.T) {
	run := func() uint64 {
		c := contentCluster(12, 9, ControllerSpec{Kind: ControllerStatic})
		for _, nd := range c.Nodes {
			nd.Subscribe(pubsub.MatchAll())
		}
		c.RunRounds(5)
		for _, seed := range []int{0, 2} {
			if _, err := c.Join(seed); err != nil {
				t.Fatal(err)
			}
		}
		c.Node(12).Subscribe(pubsub.MatchAll())
		c.Node(13).Subscribe(pubsub.MatchAll())
		c.RunRounds(5)
		c.Node(1).Publish("t", nil, []byte("z"))
		c.RunRounds(15)
		return c.DeliveredTotal() + c.TotalTraffic().MsgsSent*1000
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("join broke determinism: %d vs %d", a, b)
	}
}

// TestDownNodeSendsNothing: a node that is down sends nothing, so neither
// its ledger account nor the network's counters move when it publishes or
// subscribes — the topic-group walks and the eager push those calls make
// on an up node included. The ledger used to be charged for sends the
// network refused.
func TestDownNodeSendsNothing(t *testing.T) {
	for _, mode := range []Mode{ModeContent, ModeTopics} {
		c := NewCluster(16, Config{Mode: mode, Fanout: 3}, ClusterOptions{Seed: 3})
		c.RunRounds(4)
		c.Crash(0)
		before, traffic := c.Ledger.Account(0), c.TotalTraffic()
		c.Node(0).Publish("t", nil, []byte("x"))
		c.Node(0).Subscribe(pubsub.Topic("u"))
		after := c.Ledger.Account(0)
		if after.MsgsSent != before.MsgsSent || after.BytesSent != before.BytesSent {
			t.Errorf("mode %v: a down node was charged %v messages, was %v", mode, after.MsgsSent, before.MsgsSent)
		}
		if got := c.TotalTraffic(); got != traffic {
			t.Errorf("mode %v: the network's traffic went %+v -> %+v", mode, traffic, got)
		}
	}
}
