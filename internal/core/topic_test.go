package core

import (
	"testing"
	"time"

	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

func topicCluster(n int, seed int64) *Cluster {
	return NewCluster(n, Config{
		Mode:   ModeTopics,
		Fanout: 4,
		Batch:  8,
	}, ClusterOptions{
		Seed:      seed,
		NetConfig: simnet.Config{Latency: simnet.ConstantLatency(2 * time.Millisecond)},
	})
}

func TestTopicGroupDissemination(t *testing.T) {
	c := topicCluster(64, 1)
	// Nodes 0..19 subscribe to "sports"; the rest to "politics".
	for i, nd := range c.Nodes {
		if i < 20 {
			nd.Subscribe(pubsub.Topic("sports"))
		} else {
			nd.Subscribe(pubsub.Topic("politics"))
		}
	}
	c.RunRounds(15) // walks + group formation
	for i := 0; i < 5; i++ {
		c.Node(0).Publish("sports", nil, []byte("goal"))
		c.RunRounds(3)
	}
	c.RunRounds(15)

	subscribers := make([]int, 0, 20)
	for i := 0; i < 20; i++ {
		subscribers = append(subscribers, i)
	}
	if ratio := c.DeliveryRatio(subscribers, 4); ratio < 0.9 {
		t.Fatalf("sports subscribers delivery ratio %.3f, want ≥0.9", ratio)
	}
	// Non-subscribers must deliver nothing.
	for i := 20; i < 64; i++ {
		if d := c.Ledger.Account(i).Delivered; d != 0 {
			t.Fatalf("politics subscriber %d delivered %d sports events", i, d)
		}
	}
}

func TestTopicModeFairByStructure(t *testing.T) {
	// In topic mode only subscribers carry a topic's traffic: nodes with
	// no subscription at all must carry zero application bytes.
	c := topicCluster(48, 2)
	for i := 0; i < 24; i++ {
		c.Node(i).Subscribe(pubsub.Topic("hot"))
	}
	// Nodes 24..47 subscribe to nothing.
	c.RunRounds(15)
	for i := 0; i < 10; i++ {
		c.Node(0).Publish("hot", nil, make([]byte, 32))
		c.RunRounds(2)
	}
	c.RunRounds(10)

	for i := 24; i < 48; i++ {
		a := c.Ledger.Account(i)
		if a.BytesSent[fairness.ClassApp] != 0 {
			t.Fatalf("non-subscriber %d forwarded %d app bytes", i, a.BytesSent[fairness.ClassApp])
		}
	}
	// Subscribers did carry traffic.
	carried := 0
	for i := 0; i < 24; i++ {
		if c.Ledger.Account(i).BytesSent[fairness.ClassApp] > 0 {
			carried++
		}
	}
	if carried < 20 {
		t.Fatalf("only %d/24 subscribers carried app traffic", carried)
	}
}

func TestTopicPublishByNonSubscriber(t *testing.T) {
	c := topicCluster(48, 3)
	for i := 0; i < 16; i++ {
		c.Node(i).Subscribe(pubsub.Topic("alerts"))
	}
	c.RunRounds(15)
	// Node 40 is not subscribed; it publishes via a publication walk.
	c.Node(40).Publish("alerts", nil, []byte("fire"))
	c.RunRounds(25)

	subscribers := make([]int, 16)
	for i := range subscribers {
		subscribers[i] = i
	}
	if ratio := c.DeliveryRatio(subscribers, 1); ratio < 0.9 {
		t.Fatalf("hand-off publish delivery ratio %.3f", ratio)
	}
	// Publisher must not deliver its own uninteresting event.
	if c.Ledger.Account(40).Delivered != 0 {
		t.Fatal("non-subscribed publisher delivered its own event")
	}
}

func TestSubscriptionWalkRelaysCounted(t *testing.T) {
	// §5.1: relays of subscription walks do unrequited maintenance work.
	c := topicCluster(64, 4)
	// One early subscriber so walks have a terminus.
	c.Node(0).Subscribe(pubsub.Topic("niche"))
	c.RunRounds(10)
	// A burst of late joiners generates walks across uninterested relays.
	for i := 1; i < 20; i++ {
		c.Node(i).Subscribe(pubsub.Topic("niche"))
	}
	c.RunRounds(20)

	var relays uint64
	for _, nd := range c.Nodes {
		relays += nd.WalkRelays()
	}
	if relays == 0 {
		t.Fatal("no walk relays recorded — §5.1 burden not modeled")
	}
	// Relays are charged as infrastructure contribution.
	foundInfraOnUninvolved := false
	for i := 20; i < 64; i++ {
		if c.Nodes[i].WalkRelays() > 0 && c.Ledger.Account(i).BytesSent[fairness.ClassInfra] > 0 {
			foundInfraOnUninvolved = true
			break
		}
	}
	if !foundInfraOnUninvolved {
		t.Fatal("walk relay work was not charged to uninterested relays")
	}
}

func TestUnsubscribeLeavesGroup(t *testing.T) {
	c := topicCluster(32, 5)
	var subID pubsub.SubID
	for i := 0; i < 16; i++ {
		id := c.Node(i).Subscribe(pubsub.Topic("t"))
		if i == 5 {
			subID = id
		}
	}
	c.RunRounds(15)
	before := c.Ledger.Account(5).Delivered

	if !c.Node(5).Unsubscribe(subID) {
		t.Fatal("unsubscribe failed")
	}
	if c.Node(5).GroupView("t") != nil {
		t.Fatal("group not dropped on unsubscribe")
	}
	c.Node(0).Publish("t", nil, nil)
	c.RunRounds(20)
	if after := c.Ledger.Account(5).Delivered; after != before {
		t.Fatalf("delivered %d events after unsubscribe", after-before)
	}
}

func TestTopicViewsPopulate(t *testing.T) {
	c := topicCluster(32, 6)
	for i := 0; i < 12; i++ {
		c.Node(i).Subscribe(pubsub.Topic("x"))
	}
	c.RunRounds(25)
	populated := 0
	for i := 0; i < 12; i++ {
		if v := c.Node(i).GroupView("x"); v != nil && v.Len() > 0 {
			populated++
		}
	}
	if populated < 10 {
		t.Fatalf("only %d/12 members discovered group peers", populated)
	}
}

func TestMultiTopicSubscriber(t *testing.T) {
	c := topicCluster(48, 7)
	for i := 0; i < 12; i++ {
		c.Node(i).Subscribe(pubsub.Topic("a"))
	}
	for i := 8; i < 24; i++ {
		c.Node(i).Subscribe(pubsub.Topic("b"))
	}
	c.RunRounds(15)
	c.Node(0).Publish("a", nil, nil)
	c.Node(23).Publish("b", nil, nil)
	c.RunRounds(25)

	// Nodes 8..11 are in both groups and should deliver both events.
	for i := 8; i < 12; i++ {
		if d := c.Ledger.Account(i).Delivered; d < 2 {
			t.Fatalf("dual subscriber %d delivered %d, want 2", i, d)
		}
	}
	if c.Ledger.Account(0).Filters != 1 {
		t.Fatal("filter count wrong")
	}
}
