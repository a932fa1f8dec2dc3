package core

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"weak"

	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

func shardTestConfig() Config {
	return Config{
		Mode:       ModeContent,
		Membership: MemberFull,
		Fanout:     3,
		Batch:      4,
	}
}

// runSharded drives a fixed workload: everyone subscribes to everything,
// publishers spread across the id space (so traffic crosses every shard
// boundary), a mid-run crash and rejoin, then a drained settle.
func runSharded(n, shards int, seed int64) *Cluster {
	sc := NewShardedCluster(n, shards, shardTestConfig(), ClusterOptions{Seed: seed})
	for _, nd := range sc.Nodes {
		nd.Subscribe(pubsub.MatchAll())
	}
	for burst := 0; burst < 5; burst++ {
		for p := 0; p < 4; p++ {
			sc.Node((burst+p*n/4)%n).Publish("t", nil, []byte("payload"))
		}
		sc.RunRounds(4)
	}
	sc.Crash(n / 2)
	sc.RunRounds(4)
	sc.Rejoin(n / 2)
	sc.RunRounds(8)
	sc.Stop()
	sc.Drain()
	return sc
}

// fingerprint folds every account, every node's view and the network's
// totals into one comparable string: if any counter anywhere differs
// between two runs, the fingerprints differ.
func fingerprint(sc *Cluster) string {
	var b strings.Builder
	views := sc.Views()
	for i := 0; i < sc.N(); i++ {
		a := sc.Ledger.Account(i)
		fmt.Fprintf(&b, "%d %v|%v %d %d %d %d %d|%v\n",
			i, a.MsgsSent, a.BytesSent, a.Published, a.Delivered, a.UsefulBytes, a.JunkBytes, a.Filters, views[i])
	}
	tot := sc.TotalTraffic()
	fmt.Fprintf(&b, "total %d %d %d %d\n", tot.MsgsSent, tot.BytesSent, tot.MsgsRecv, tot.Dropped)
	return b.String()
}

// shardedGolden pins sha256(fingerprint(runSharded(64, shards, 42))) per
// shard count across commits, as TestGoldenStdoutHash and
// TestSimColumnGolden pin the one-shard run: two runs of one binary agree
// even when a change moves sharded output the same way in both. Only a
// change that means to move an RNG draw, a firing order or a tie-break
// sequence may re-pin them, and says why. All four moved once, from
// 2a981850…, ed5e7a3b…, 61d39d4b… and 2e1ca319…, when an event's first
// two hops began to leave at once (the publisher's push on Publish, its
// receivers' relay on receipt): new partner draws, and publications that
// send across shards. All four moved once more, from 22af5127…,
// aba007d9…, b55b104c… and 96f6074b…, when the hop went on the wire and
// an event's first protocol.EagerHops hops began to leave at once: relays
// at every eager hop draw partners and send across shards
// (PERFORMANCE.md "The first H hops"). All four moved once more, from
// ae4205b8…, a672dcb0…, b4cf9120… and 4636668e…, with no run moving:
// simnet stopped counting traffic per node, so fingerprint folds each
// node's view where its per-node network counters were, and this
// fingerprint hashes the same on the code before and after that change.
var shardedGolden = map[int]string{
	1: "f4bd4379bdf5302955c2ae46c1e0f549f2952f74a9001cac6512a7846f78527c",
	2: "bca3dfde441c25b09f83a21a55b6fd7963344047b005d2c9838faf5fe86c43d6",
	4: "fe742f8d6ee1fc1cede8aba88d868b0d8ef05b2ad09bd97080d1b90a7508586e",
	8: "3c749d0e82e2469e604adc90907b234d70644ad90b7e2a306d71df366bb2fc48",
}

// Fixed seed + fixed shard count must reproduce every counter exactly,
// for every shard count — the (seed, shardCount) determinism contract —
// and reproduce the pinned run.
func TestShardedDeterministicPerShardCount(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		sc := runSharded(64, shards, 42)
		// Sim/Net are the sole shard's kernel and network, and nil as soon
		// as there is more than one: a reach-through on a sharded cluster
		// must fail loudly, not show shard 0.
		if one := sc.Shards() == 1; (sc.Sim != nil) != one || (sc.Net != nil) != one {
			t.Fatalf("shards=%d: Sim set %v, Net set %v", sc.Shards(), sc.Sim != nil, sc.Net != nil)
		}
		a := fingerprint(sc)
		b := fingerprint(runSharded(64, shards, 42))
		if a != b {
			t.Fatalf("shards=%d: two identical runs diverged:\n--- run 1\n%s--- run 2\n%s", shards, a, b)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(a))); got != shardedGolden[shards] {
			t.Errorf("shards=%d: run hashes %s, pinned %s", shards, got, shardedGolden[shards])
		}
	}
}

// Events published on one shard must reach subscribers on every other
// shard through the barrier mailboxes.
func TestShardedCrossShardDelivery(t *testing.T) {
	const n, shards = 64, 4
	sc := NewShardedCluster(n, shards, shardTestConfig(), ClusterOptions{Seed: 3})
	for _, nd := range sc.Nodes {
		nd.Subscribe(pubsub.MatchAll())
	}
	sc.Node(0).Publish("t", nil, []byte("x")) // lives on shard 0
	sc.RunRounds(30)
	sc.Stop()
	sc.Drain()
	for i := 0; i < n; i++ {
		if sc.Ledger.Account(i).Delivered == 0 {
			t.Fatalf("node %d (shard %d) never delivered the event", i, sc.shardOf(i))
		}
	}
}

// TestShardedPublishPushesAcrossShards: in every push mode, Publish sends
// the event's first push at once, from the calling goroutine between
// windows, to partners on any shard, and the event reaches every shard.
// make race runs it under the detector.
func TestShardedPublishPushesAcrossShards(t *testing.T) {
	const n, shards = 64, 4
	topics, semantic := shardTestConfig(), shardTestConfig()
	topics.Mode, semantic.SemanticBias = ModeTopics, 0.5
	for _, cfg := range []Config{shardTestConfig(), topics, semantic} {
		sc := NewShardedCluster(n, shards, cfg, ClusterOptions{Seed: 3})
		for _, nd := range sc.Nodes {
			nd.Subscribe(pubsub.Topic("t"))
		}
		sc.RunRounds(10) // topic groups form
		sent := sc.Ledger.Account(0).MsgsSent
		sc.Node(0).Publish("t", nil, []byte("x")) // lives on shard 0
		if sc.Ledger.Account(0).MsgsSent == sent {
			t.Fatalf("mode %d, bias %.1f: the publication sent nothing", cfg.Mode, cfg.SemanticBias)
		}
		sc.RunRounds(30)
		sc.Stop()
		sc.Drain()
		reached := make([]bool, shards)
		for i := 0; i < n; i++ {
			if sc.Ledger.Account(i).Delivered > 0 {
				reached[sc.shardOf(i)] = true
			}
		}
		if slices.Contains(reached, false) {
			t.Fatalf("mode %d, bias %.1f: shards reached %v", cfg.Mode, cfg.SemanticBias, reached)
		}
	}
}

// Conservation must hold across shard boundaries: every message sent is
// either received or counted as dropped, with no double counting from
// the mailbox hand-off.
func TestShardedConservation(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		sc := runSharded(48, shards, 11)
		tot := sc.TotalTraffic()
		if tot.MsgsSent != tot.MsgsRecv+tot.Dropped {
			t.Fatalf("shards=%d: sent %d != recv %d + dropped %d",
				shards, tot.MsgsSent, tot.MsgsRecv, tot.Dropped)
		}
	}
}

// Partition and heal must apply uniformly across all shard networks —
// through the same cluster methods at every shard count, one included.
func TestShardedPartitionBlocksCrossGroup(t *testing.T) {
	const n = 32
	for _, shards := range []int{1, 2, 4} {
		sc := NewShardedCluster(n, shards, shardTestConfig(), ClusterOptions{Seed: 5})
		for _, nd := range sc.Nodes {
			nd.Subscribe(pubsub.MatchAll())
		}
		// Isolate the first half (spanning shards 0 and 1 of 4) from the
		// second.
		side := make([]int, 0, n/2)
		for i := 0; i < n/2; i++ {
			side = append(side, i)
		}
		sc.Partition(side)
		sc.Node(0).Publish("t", nil, []byte("x"))
		sc.RunRounds(20)
		for i := n / 2; i < n; i++ {
			if d := sc.Ledger.Account(i).Delivered; d != 0 {
				t.Fatalf("shards=%d: node %d delivered %d events across a partition", shards, i, d)
			}
		}
		sc.Heal()
		// The pre-heal event has aged out of every buffer by now
		// (BufferMaxAge default is 8 rounds); publish a fresh one to prove
		// the healed network carries traffic across the old boundary again.
		sc.Node(0).Publish("t", nil, []byte("y"))
		sc.RunRounds(30)
		sc.Stop()
		sc.Drain()
		healed := 0
		for i := n / 2; i < n; i++ {
			if sc.Ledger.Account(i).Delivered > 0 {
				healed++
			}
		}
		if healed == 0 {
			t.Fatalf("shards=%d: no node beyond the healed partition ever delivered", shards)
		}
	}
}

// Join must extend the tail shard and make the joiner a full
// participant (announcing itself to a seed on another shard, and
// receiving cross-shard gossip, when there is more than one).
func TestShardedJoin(t *testing.T) {
	const n = 32
	cfg := shardTestConfig()
	cfg.Membership = MemberCyclon // only partial views admit joiners
	for _, shards := range []int{1, 2, 4} {
		sc := NewShardedCluster(n, shards, cfg, ClusterOptions{Seed: 9})
		for _, nd := range sc.Nodes {
			nd.Subscribe(pubsub.MatchAll())
		}
		sc.RunRounds(2)
		id, err := sc.Join(0)
		if got, want := id, n; got != want || err != nil {
			t.Fatalf("shards=%d: joiner id = %d (%v), want %d", shards, got, err, want)
		}
		if sc.shardOf(id) != shards-1 {
			t.Fatalf("joiner landed on shard %d, want tail shard %d", sc.shardOf(id), shards-1)
		}
		joiner := sc.Node(id)
		joiner.Subscribe(pubsub.MatchAll())
		sc.Node(0).Publish("t", nil, []byte("x")) // other end of the id space
		sc.RunRounds(30)
		sc.Stop()
		sc.Drain()
		if sc.Ledger.Account(int(id)).Delivered == 0 {
			t.Fatalf("shards=%d: joiner never delivered the event", shards)
		}
	}
}

// Batched rounds must stay deterministic and functional when sharded —
// the configuration bench/'s sim-huge runs.
func TestShardedBatchRoundsDeterministic(t *testing.T) {
	run := func() *Cluster {
		cfg := shardTestConfig()
		cfg.BatchRounds = true
		sc := NewShardedCluster(64, 4, cfg, ClusterOptions{Seed: 21})
		for _, nd := range sc.Nodes {
			nd.Subscribe(pubsub.MatchAll())
		}
		sc.Node(1).Publish("t", nil, []byte("x"))
		sc.Node(63).Publish("t", nil, []byte("y"))
		sc.RunRounds(30)
		sc.Stop()
		sc.Drain()
		return sc
	}
	a, b := run(), run()
	if fingerprint(a) != fingerprint(b) {
		t.Fatalf("batched sharded runs diverged")
	}
	if a.DeliveredTotal() < 64 {
		t.Fatalf("batched sharded run delivered only %d events", a.DeliveredTotal())
	}
}

// A drained mailbox must pin nothing: once the barrier has injected a
// parked message and its window has delivered it, a plain-allocated
// message is garbage, not kept alive by the mailbox's reused backing store.
func TestDrainedMailboxPinsNothing(t *testing.T) {
	c := NewShardedCluster(64, 2, Config{Mode: ModeTopics, Fanout: 4, Batch: 8}, ClusterOptions{Seed: 1})
	m := &wireMsg{Msg: wire.Msg{Kind: wire.KindSubWalk, Parts: &wire.Parts{Topic: "t", Hops: 1}}} // a walk that dies where it lands
	walk := weak.Make(m)
	c.shards[0].net.Send(0, simnet.NodeID(c.N()-1), m, m.Size())
	m = nil
	if c.shards[0].outbox[1].Len() != 1 {
		t.Fatal("the walk did not cross to shard 1's mailbox")
	}
	c.runWindow(c.now() + c.cfg.RoundPeriod) // the barrier injects the walk
	c.runWindow(c.now() + c.cfg.RoundPeriod) // shard 1 delivers it
	runtime.GC()
	if walk.Value() != nil {
		t.Fatal("a delivered cross-shard walk is still reachable from its drained mailbox")
	}
	runtime.KeepAlive(c) // the cluster, and so its mailboxes, outlive the check
}

// Mailboxes that fill more than one block in a window merge in the same
// order every time: two runs are byte-identical.
func TestShardedMailboxesSpanBlocks(t *testing.T) {
	run := func() (*Cluster, int) {
		sc := NewShardedCluster(2048, 2, shardTestConfig(), ClusterOptions{Seed: 4})
		for _, nd := range sc.Nodes {
			nd.Subscribe(pubsub.MatchAll())
		}
		for r := 0; r < 8; r++ {
			sc.Node(r*255).Publish("t", nil, []byte("payload"))
			sc.RunRounds(1)
		}
		sc.Stop()
		sc.Drain()
		// Drained boxes keep their blocks: more than one means a window
		// parked more than one block's worth.
		return sc, reflect.ValueOf(sc.shards[0].outbox[1]).FieldByName("blocks").Len()
	}
	a, blocks := run()
	if blocks < 2 {
		t.Fatalf("the shard 0 → 1 mailbox never outgrew one block (%d)", blocks)
	}
	b, _ := run()
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("two runs whose mailboxes span blocks diverged")
	}
}

// shardSpan must cover [0, n) with every shard nonempty, aligning to
// ledger chunks only when alignment keeps the tail nonempty.
func TestShardSpan(t *testing.T) {
	cases := []struct{ n, shards int }{
		{8, 2}, {64, 8}, {100, 8}, {1000, 8}, {2048, 8}, {2100, 8}, {100000, 8}, {256, 256},
	}
	for _, tc := range cases {
		per := shardSpan(tc.n, tc.shards)
		if per*(tc.shards-1) >= tc.n {
			t.Fatalf("n=%d shards=%d: span %d leaves the tail shard empty", tc.n, tc.shards, per)
		}
		if per*tc.shards < tc.n {
			t.Fatalf("n=%d shards=%d: span %d does not cover the population", tc.n, tc.shards, per)
		}
		// Alignment applies exactly when it keeps the tail shard nonempty.
		aligned := (per + fairness.ChunkSize - 1) / fairness.ChunkSize * fairness.ChunkSize
		if aligned*(tc.shards-1) < tc.n && per%fairness.ChunkSize != 0 {
			t.Fatalf("n=%d shards=%d: span %d not chunk-aligned despite room", tc.n, tc.shards, per)
		}
	}
}
