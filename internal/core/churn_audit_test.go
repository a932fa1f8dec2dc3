package core

import (
	"testing"
	"time"

	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// TestLeaveRejoinWithPenalty crashes a node and brings it back through
// the cluster, charging the §3.2 penalty as a churn schedule does: the
// cluster adds none of its own, and the rejoiner recovers delivery.
func TestLeaveRejoinWithPenalty(t *testing.T) {
	c := NewCluster(32, Config{
		Mode:   ModeContent,
		Fanout: 5,
	}, ClusterOptions{
		Seed:      1,
		NetConfig: simnet.Config{Latency: simnet.ConstantLatency(2 * time.Millisecond)},
	})
	for _, nd := range c.Nodes {
		nd.Subscribe(pubsub.MatchAll())
	}
	c.RunRounds(10)

	victim := c.Node(7)
	c.Crash(7)
	if victim.Active() {
		t.Fatal("node still active after Crash")
	}
	deliveredBefore := c.Ledger.Account(7).Delivered
	c.Node(0).Publish("t", nil, nil)
	c.RunRounds(15)
	if got := c.Ledger.Account(7).Delivered; got != deliveredBefore {
		t.Fatal("down node delivered events")
	}

	c.Rejoin(7)
	c.Ledger.AddChurnPenalty(7, 500)
	c.RunRounds(5)
	if !victim.Active() {
		t.Fatal("node not active after Rejoin")
	}
	if got := c.Ledger.Account(7).ChurnPenalty; got != 500 {
		t.Fatalf("churn penalty = %v, want 500", got)
	}
	// View repair restored connectivity: the node delivers fresh events.
	c.Node(1).Publish("t2", nil, nil)
	c.RunRounds(20)
	if got := c.Ledger.Account(7).Delivered; got <= deliveredBefore {
		t.Fatal("rejoined node never recovered delivery")
	}
}

// TestRejoinWithoutPenaltyConfigured: the cluster's churn calls charge
// no penalty; only a caller that schedules the churn does.
func TestRejoinWithoutPenaltyConfigured(t *testing.T) {
	c := NewCluster(8, Config{Mode: ModeContent}, ClusterOptions{Seed: 2})
	c.RunRounds(2)
	c.Crash(3)
	c.Rejoin(3)
	c.Leave(4)
	c.Rejoin(4)
	for _, id := range []int{3, 4} {
		if !c.Up(id) {
			t.Fatalf("node %d down after Rejoin", id)
		}
		if got := c.Ledger.Account(id).ChurnPenalty; got != 0 {
			t.Fatalf("node %d: the cluster charged a penalty of %v", id, got)
		}
	}
}

func TestCheaterAuditExposure(t *testing.T) {
	// EXP-A6 in miniature: a cheater pads every gossip message with
	// protocol.JunkPadding bytes. Raw contribution rewards it; the novelty audit
	// does not.
	c := NewCluster(32, Config{
		Mode:   ModeContent,
		Fanout: 5,
		Batch:  4,
	}, ClusterOptions{
		Seed:      3,
		NetConfig: simnet.Config{Latency: simnet.ConstantLatency(2 * time.Millisecond)},
	})
	const cheater = 9
	c.Node(cheater).Cheat = true
	for _, nd := range c.Nodes {
		nd.Subscribe(pubsub.MatchAll())
	}
	c.RunRounds(5)
	for i := 0; i < 20; i++ {
		c.Node(i%8).Publish("t", nil, make([]byte, 24))
		c.RunRounds(2)
	}
	c.RunRounds(10)

	cheatAcct := c.Ledger.Account(cheater)
	if cheatAcct.JunkBytes == 0 {
		t.Fatal("cheater accumulated no junk")
	}
	// Raw bytes per app message: cheater's messages are padded, so its
	// raw contribution per message is inflated versus honest peers.
	var honestUseful, honestJunk, honestRaw float64
	honestCount := 0
	for i := 0; i < 32; i++ {
		if i == cheater {
			continue
		}
		a := c.Ledger.Account(i)
		if a.MsgsSent[fairness.ClassApp] == 0 {
			continue
		}
		honestUseful += float64(a.UsefulBytes)
		honestJunk += float64(a.JunkBytes)
		honestRaw += float64(a.BytesSent[fairness.ClassApp])
		honestCount++
	}
	if honestCount == 0 {
		t.Fatal("no honest forwarders")
	}
	honestUsefulFrac := honestUseful / (honestUseful + honestJunk)
	cheatUsefulFrac := float64(cheatAcct.UsefulBytes) /
		float64(cheatAcct.UsefulBytes+cheatAcct.JunkBytes)
	if cheatUsefulFrac >= honestUsefulFrac {
		t.Fatalf("audit failed to expose cheater: useful frac cheater %.3f vs honest %.3f",
			cheatUsefulFrac, honestUsefulFrac)
	}

	// Under audited weights the cheater's contribution collapses toward
	// what its useful bytes justify.
	aw := fairness.Weights{Audited: true}
	rawContrib := fairness.Contribution(cheatAcct, fairness.DefaultWeights())
	auditedContrib := fairness.Contribution(cheatAcct, aw)
	if auditedContrib >= rawContrib {
		t.Fatalf("audited contribution %.0f not below raw %.0f", auditedContrib, rawContrib)
	}
}

func TestInactiveNodeSkipsRounds(t *testing.T) {
	c := NewCluster(4, Config{Mode: ModeContent}, ClusterOptions{Seed: 4})
	c.Crash(2)
	sent := c.Ledger.Account(2).MsgsSent
	c.RunRounds(10)
	if got := c.Ledger.Account(2).MsgsSent; got != sent {
		t.Fatal("inactive node kept sending")
	}
	if c.TotalTraffic().MsgsSent == 0 {
		t.Fatal("the up nodes sent nothing either")
	}
}

func TestHandleMessageIgnoresGarbage(t *testing.T) {
	c := NewCluster(2, Config{Mode: ModeContent}, ClusterOptions{Seed: 5})
	c.Node(0).HandleMessage(simnet.Message{From: 1, To: 0, Payload: 42, Size: 1})
	// A wireMsg of an unknown kind is also ignored.
	c.Node(0).HandleMessage(simnet.Message{From: 1, To: 0, Payload: &wireMsg{Msg: wire.Msg{Kind: 99}}, Size: 1})
	if c.Ledger.Account(0).Delivered != 0 {
		t.Fatal("garbage processed")
	}
}

func TestSubscribeContentModeNoWalk(t *testing.T) {
	// Content mode must not launch topic walks even for topic filters.
	c := NewCluster(8, Config{Mode: ModeContent}, ClusterOptions{Seed: 6})
	c.Node(0).Subscribe(pubsub.Topic("t"))
	if c.Node(0).GroupView("t") != nil {
		t.Fatal("content mode keeps topic-group state")
	}
	if c.TotalTraffic().MsgsSent != 0 {
		t.Fatal("content mode launched a subscription walk")
	}
}
