package core

import (
	"math"
	"testing"
	"time"

	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// classicCluster is Fig. 4's push baseline as EXP-F4 builds it: FairGossip
// with the §5.2 levers pinned — content mode over the full sampler, the
// static controller at batch 4 — and links a tenth of a round long. cfg
// brings the fanout, the forwarding TTL and push-pull.
func classicCluster(seed int64, n int, cfg Config, loss float64) *Cluster {
	cfg.Mode, cfg.Membership, cfg.Batch = ModeContent, MemberFull, 4
	return NewCluster(n, cfg, ClusterOptions{Seed: seed, NetConfig: simnet.Config{
		Latency: simnet.ConstantLatency(10 * time.Millisecond),
		Loss:    loss,
	}})
}

// classicCoverage publishes one event at node 0 of a classic cluster whose
// nodes all want everything and returns the share of nodes that delivered
// it after the given rounds, averaged over the seeds.
func classicCoverage(seeds []int64, n, rounds int, cfg Config, loss float64) float64 {
	var sum float64
	for _, seed := range seeds {
		c := classicCluster(seed, n, cfg, loss)
		all := make([]int, n)
		for i, nd := range c.Nodes {
			nd.Subscribe(pubsub.MatchAll())
			all[i] = i
		}
		c.Node(0).Publish("t", nil, nil)
		c.RunRounds(rounds)
		sum += c.DeliveryRatio(all, 1)
	}
	return sum / float64(len(seeds))
}

// TestClassicConfiguration: the classic baseline keeps every behaviour the
// hand-written classic peer (gossip.Peer, deleted in PR 25) was tested for.
func TestClassicConfiguration(t *testing.T) {
	logN := func(n int) int { return int(math.Ceil(math.Log(float64(n)))) }
	for _, tc := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"log fanout reaches all", func(t *testing.T) {
			if got := classicCoverage([]int64{1}, 128, 15, Config{Fanout: logN(128) + 2, BufferMaxAge: 16}, 0); got < 0.99 {
				t.Fatalf("coverage %.3f with fanout ln n + 2, want ≥ 0.99", got)
			}
		}},
		{"fanout 1 stays partial", func(t *testing.T) {
			// Coverage 0.465 when every hop waited for a round, 0.828 once
			// an event's first two hops left at once, 0.840 with its first
			// protocol.EagerHops; fanout 2 covers 1.000 at this size.
			if got := classicCoverage([]int64{2}, 256, 8, Config{Fanout: 1, BufferMaxAge: 9}, 0); got > 0.9 {
				t.Fatalf("fanout 1 covered %.3f, want ≤ 0.9", got)
			}
		}},
		{"coverage is monotone in fanout", func(t *testing.T) {
			at := func(f int) float64 {
				return classicCoverage([]int64{10, 11, 12}, 128, 10, Config{Fanout: f, BufferMaxAge: 11}, 0)
			}
			lo, mid, hi := at(1), at(3), at(6)
			if !(lo <= mid+0.05 && mid <= hi+0.02) || hi < 0.99 {
				t.Fatalf("coverage at fanout 1/3/6 = %.3f/%.3f/%.3f, want monotone-ish and ≈ 1 at 6", lo, mid, hi)
			}
		}},
		{"20% loss still reaches 0.97", func(t *testing.T) {
			if got := classicCoverage([]int64{3}, 128, 15, Config{Fanout: logN(128) + 3, BufferMaxAge: 16}, 0.2); got < 0.97 {
				t.Fatalf("coverage %.3f under 20%% loss, want ≥ 0.97", got)
			}
		}},
		{"uninterested nodes forward but never deliver", func(t *testing.T) {
			// The crux of the paper's unfairness complaint (§4.2).
			c := classicCluster(4, 16, Config{Fanout: 4}, 0)
			for i := 0; i < 16; i += 2 {
				c.Node(i).Subscribe(pubsub.MatchAll())
			}
			c.Node(0).Publish("t", nil, nil)
			c.RunRounds(15)
			for i := 1; i < 16; i += 2 {
				a := c.Ledger.Account(i)
				if a.Delivered != 0 {
					t.Fatalf("uninterested node %d delivered", i)
				}
				if a.MsgsSent[fairness.ClassApp] == 0 {
					t.Fatalf("uninterested node %d forwarded nothing — not classic gossip", i)
				}
			}
		}},
		{"OnDeliver sees each delivery once", func(t *testing.T) {
			c := classicCluster(5, 16, Config{Fanout: 4}, 0)
			calls := make([]int, 16)
			for i, nd := range c.Nodes {
				nd.Subscribe(pubsub.MatchAll())
				nd.OnDeliver = func(*pubsub.Event) { calls[i]++ }
			}
			c.Node(0).Publish("t", nil, nil)
			c.RunRounds(15) // every node receives copies long after its first
			for i, n := range calls {
				if d := c.Ledger.Account(i).Delivered; n != 1 || d != 1 {
					t.Fatalf("node %d: %d callbacks, %d deliveries; want 1 and 1", i, n, d)
				}
			}
		}},
		{"push-pull repairs the fanout-1 tail", func(t *testing.T) {
			at := func(every int) float64 {
				return classicCoverage([]int64{40, 41, 42}, 192, 25, Config{Fanout: 1, BufferMaxAge: 2, AntiEntropy: every}, 0)
			}
			if push, pull := at(0), at(2); push > 0.9 || pull < 0.99 {
				t.Fatalf("coverage push-only %.3f, push-pull %.3f; want a tail (≤ 0.9) and its repair (≥ 0.99)", push, pull)
			}
		}},
		{"push-pull holds 0.99 under 30% loss", func(t *testing.T) {
			if got := classicCoverage([]int64{7}, 128, 20, Config{Fanout: logN(128), BufferMaxAge: 3, AntiEntropy: 2}, 0.3); got < 0.99 {
				t.Fatalf("push-pull coverage %.3f under 30%% loss, want ≥ 0.99", got)
			}
		}},
		{"a digest waits for its cadence", func(t *testing.T) {
			c := classicCluster(9, 2, Config{BufferMaxAge: 1, AntiEntropy: 3}, 0)
			c.Node(1).Subscribe(pubsub.MatchAll())
			c.Partition([]int{1}) // the publisher's eager push is lost
			c.Node(0).Publish("t", nil, nil)
			c.Drain()
			c.Heal()
			c.Node(0).Buffer().Tick() // the push TTL is over: only a digest can move the event
			for round := 1; round <= 3; round++ {
				if c.Ledger.Account(1).Delivered != 0 {
					t.Fatalf("delivered before round %d, ahead of the digest's cadence", round)
				}
				c.Node(0).Round()
				c.Drain()
			}
			if got := c.Ledger.Account(1).Delivered; got != 1 {
				t.Fatalf("round 3's digest and pull delivered %d events, want 1", got)
			}
		}},
		{"a pull for an id the node lacks gets no reply", func(t *testing.T) {
			c := classicCluster(10, 2, Config{AntiEntropy: 2}, 0)
			c.Node(1).Subscribe(pubsub.MatchAll())
			pull := func(id pubsub.EventID) {
				c.Node(0).HandleMessage(simnet.Message{From: 1, To: 0, Payload: &wireMsg{Msg: wire.Msg{Kind: wire.KindPull, Parts: &wire.Parts{IDs: []pubsub.EventID{id}}}}})
				c.Drain()
			}
			sent0 := func() uint64 { m := c.Ledger.Account(0).MsgsSent; return m[fairness.ClassApp] + m[fairness.ClassInfra] }
			pull(pubsub.EventID{Publisher: 5, Seq: 5})
			if sent := sent0(); sent != 0 {
				t.Fatalf("%d replies to a pull for an unknown id", sent)
			}
			id := c.Node(0).Publish("t", nil, nil)
			c.Drain()
			pushed := sent0() // the publisher's eager push
			pull(id)
			if sent, got := sent0()-pushed, c.Ledger.Account(1).Delivered; sent != 1 || got != 1 {
				t.Fatalf("a pull for a held event got %d replies and %d deliveries, want 1 and 1", sent, got)
			}
		}},
	} {
		t.Run(tc.name, tc.check)
	}
}
