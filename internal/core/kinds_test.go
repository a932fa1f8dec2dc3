package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairgossip/internal/eventsim"
	"fairgossip/internal/live"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/transport"
	"fairgossip/internal/wire"
)

// TestChargedIsEncoded: the simulator charges every message the length
// internal/wire encodes it to. Three clusters send all twelve kinds and
// every optional part between them — topic groups with push-pull, a cheat,
// and a graceful leave and rejoin under Cyclon; semantic bias in content
// mode; 1 KB events, whose round pushes carry ids that are pulled.
// Each node is a shard of its own, so every message but a node's message
// to itself crosses a mailbox, where it is encoded, scanned and held to
// the size its sender was charged.
func TestChargedIsEncoded(t *testing.T) {
	var mu sync.Mutex
	kinds := make(map[wire.Kind]int)
	parts := make(map[string]int)
	run := func(name string, n int, cfg Config, drive func(c *Cluster)) {
		var selfSends atomic.Int64
		c := NewShardedCluster(n, n, cfg, ClusterOptions{Seed: 3, NetConfig: simnet.Config{
			Latency: func(_ *rand.Rand, from, to simnet.NodeID) time.Duration {
				if from == to {
					selfSends.Add(1) // delivered on the node's own shard, unseen below
				}
				return time.Millisecond
			},
		}})
		checked := 0
		for _, sh := range c.shards {
			park := c.remoteHook(sh)
			sh.net.SetRemote(func(m eventsim.Msg, delay time.Duration) {
				w := m.Payload.(*wireMsg)
				buf, err := wire.Append(nil, uint32(m.From), &w.Msg)
				var env wire.Envelope
				if err == nil {
					err = wire.DecodeEnvelope(buf, &env)
				}
				mu.Lock()
				defer mu.Unlock()
				if err != nil || len(buf) != int(m.Size) || env.Kind != w.Kind {
					t.Errorf("%s: kind %d charged %d bytes, encodes to %d (%v)", name, w.Kind, m.Size, len(buf), err)
				}
				checked++
				kinds[w.Kind]++
				x := w.Opt()
				for part, set := range map[string]bool{"topic": x.Topic != "", "ads": len(x.Ads) > 0,
					"fingerprint": x.FP != 0 || len(x.FPAds) > 0, "padding": x.Pad > 0} {
					if set {
						parts[part]++
					}
				}
				park(m, delay)
			})
		}
		drive(c)
		c.Stop()
		c.Drain()
		if sent := int(c.TotalTraffic().MsgsSent); checked+int(selfSends.Load()) != sent {
			t.Errorf("%s: checked %d messages and %d self-sends of %d sent", name, checked, selfSends.Load(), sent)
		}
	}
	run("topics", 24, Config{Mode: ModeTopics, Membership: MemberCyclon, AntiEntropy: 2, Fanout: 3, Batch: 4}, func(c *Cluster) {
		for i, nd := range c.Nodes {
			if i%3 != 0 {
				nd.Subscribe(pubsub.Topic("t"))
			}
		}
		c.Node(1).Cheat = true
		for r := 0; r < 8; r++ {
			c.Node(0).Publish("t", nil, []byte("walked")) // not subscribed: a publication walk
			c.Node(1).Publish("t", nil, []byte("gossiped"))
			c.RunRounds(1)
		}
		c.Leave(5)
		c.RunRounds(2)
		c.Rejoin(5)
		c.RunRounds(6)
	})
	run("semantic", 16, Config{Mode: ModeContent, SemanticBias: 0.5}, func(c *Cluster) {
		for i, nd := range c.Nodes {
			nd.Subscribe(pubsub.Topic(fmt.Sprint("camp", i%2)))
		}
		for r := 0; r < 8; r++ {
			c.Node(r%16).Publish(fmt.Sprint("camp", r%2), nil, []byte("x"))
			c.RunRounds(1)
		}
	})
	before := map[wire.Kind]int{wire.KindLazy: kinds[wire.KindLazy], wire.KindPull: kinds[wire.KindPull]}
	run("1 KB", 16, Config{Mode: ModeContent}, func(c *Cluster) {
		for _, nd := range c.Nodes {
			nd.Subscribe(pubsub.MatchAll())
		}
		for r := 0; r < 12; r++ {
			c.Node(r%16).Publish("t", nil, make([]byte, 1024))
			c.RunRounds(1)
		}
		c.RunRounds(8)
	})
	lazy, pulls := kinds[wire.KindLazy]-before[wire.KindLazy], kinds[wire.KindPull]-before[wire.KindPull]
	t.Logf("charged = encoded: 1 KB phase: %d lazy pushes, %d pulls", lazy, pulls)
	if lazy == 0 || pulls == 0 {
		t.Errorf("1 KB phase: %d lazy pushes and %d pulls, want some of each", lazy, pulls)
	}
	names := [...]string{"events", "offer", "reply", "join", "leave", "sub-walk", "sub-ack", "pub-walk", "digest", "pull", "lazy", "eager"}
	for k := wire.Kind(0); k < wire.NumKinds; k++ {
		if kinds[k] == 0 {
			t.Errorf("no message of kind %d was sent", k)
		}
		t.Logf("charged = encoded: %-8s %5d messages", names[k], kinds[k])
	}
	for _, part := range []string{"topic", "ads", "fingerprint", "padding"} {
		if parts[part] == 0 {
			t.Errorf("no message carried a %s part", part)
		}
	}
	t.Logf("charged = encoded: parts %v", parts)
}

// TestEveryKindIsHandled runs over the whole wire.Kind family. Each kind
// encodes, scans and re-encodes to the same bytes; a simulated node acts
// on each — something it sends, delivers or keeps in a view moves; and a
// live peer acts on events, eager and lazy pushes, pulls and the
// membership kinds and counts every other kind as malformed. A kind without a handler on either driver, or
// a handler arm deleted, fails here by name.
func TestEveryKindIsHandled(t *testing.T) {
	liveKinds := map[wire.Kind]bool{wire.KindEvents: true, wire.KindOffer: true, wire.KindReply: true, wire.KindJoin: true, wire.KindLeave: true,
		wire.KindPull: true, wire.KindLazy: true, wire.KindEager: true}
	for k := wire.Kind(0); k < wire.NumKinds; k++ {
		c := NewCluster(24, Config{Mode: ModeTopics, Membership: MemberCyclon, AntiEntropy: 1}, ClusterOptions{Seed: 5})
		nd := c.Node(0)
		nd.Subscribe(pubsub.Topic("t"))
		nd.Publish("t", nil, []byte("held")) // event 0/1, for a pull to find
		from, m := kindProbe(c, k)
		buf, err := wire.Append(nil, uint32(from), &m.Msg)
		if err != nil {
			t.Fatalf("kind %d: %v", k, err)
		}
		var env wire.Envelope
		if err := wire.DecodeEnvelope(buf, &env); err != nil || env.Kind != k {
			t.Fatalf("kind %d: scan: %v, kind %d", k, err, env.Kind)
		}
		back := wire.Msg{Kind: env.Kind, Hop: env.Hop, Entries: env.Entries, Parts: &env.Parts}
		for _, rec := range env.Records {
			ev, err := rec.Decode(nil)
			if err != nil {
				t.Fatal(err)
			}
			back.Events = append(back.Events, ev)
		}
		if again, err := wire.Append(nil, env.Sender, &back); err != nil || !bytes.Equal(again, buf) {
			t.Fatalf("kind %d: decode→encode is not the identity (%v)", k, err)
		}
		state := func() string {
			return fmt.Sprint(c.Ledger.Account(0), c.TotalTraffic().MsgsSent, nd.View().IDs(), nd.GroupView("t").IDs())
		}
		before := state()
		nd.HandleMessage(simnet.Message{From: from, To: 0, Payload: m, Size: m.Size()})
		if state() == before {
			t.Errorf("kind %d: the simulated node did nothing with it", k)
		}
	}

	// The live runtime: one peer, no rounds, envelopes from an extra
	// endpoint that claims to be peer 1.
	var nw transport.Net
	lc, err := live.NewCluster(live.Config{N: 3, Seed: 1, RoundPeriod: time.Hour, Transport: func(n int) (transport.Net, error) {
		var err error
		nw, err = transport.Chan()(n)
		return nw, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	lc.Subscribe(0, pubsub.MatchAll())
	lc.Publish(0, "t", nil, []byte("held")) // event 0/1, for a pull to find
	lc.OnDeliver(0, func(*pubsub.Event) { delivered.Add(1) })
	ep, err := nw.Attach(3, nw.Release)
	if err != nil {
		t.Fatal(err)
	}
	lc.Start()
	defer lc.Stop()
	for k := wire.Kind(0); k < wire.NumKinds; k++ {
		m := kindProbeMsg(k)
		buf, err := wire.Append(nil, 1, &m)
		if err != nil {
			t.Fatal(err)
		}
		// Peer 0's own sends, not the cluster's: peers 1 and 2 relay the
		// held event they got from its publisher while the probes run.
		tr, sent, view, n := lc.Traffic(), lc.Ledger().Account(0).MsgsSent, fmt.Sprint(lc.View(0)), delivered.Load()
		acted := func() bool {
			return sent != lc.Ledger().Account(0).MsgsSent || view != fmt.Sprint(lc.View(0)) || n != delivered.Load()
		}
		if err := ep.Send(0, buf); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for !acted() && lc.Traffic().Malformed == tr.Malformed && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		did, counted := acted(), lc.Traffic().Malformed != tr.Malformed
		if liveKinds[k] && (!did || counted) {
			t.Errorf("kind %d: a live peer should act on it (acted %v, counted malformed %v)", k, did, counted)
		}
		if !liveKinds[k] && (did || !counted) {
			t.Errorf("kind %d: a live peer should count it as malformed (acted %v, counted %v)", k, did, counted)
		}
	}
}

// kindProbeMsg is a message of kind k with what that kind carries.
func kindProbeMsg(k wire.Kind) wire.Msg {
	ev := &pubsub.Event{ID: pubsub.EventID{Publisher: 3, Seq: 1}, Topic: "t"}
	id := 100 + 3*uint32(k) // ids no view holds yet, and no other probe sends
	ents := []wire.ViewEntry{{ID: id}, {ID: id + 1}, {ID: id + 2}}
	walk := &wire.Parts{Origin: 2, Hops: 4, Topic: "t"}
	switch k {
	case wire.KindEvents:
		return wire.Msg{Kind: k, Events: []*pubsub.Event{ev}, Parts: &wire.Parts{Topic: "t"}}
	case wire.KindOffer, wire.KindReply, wire.KindJoin, wire.KindLeave:
		return wire.Msg{Kind: k, Entries: ents}
	case wire.KindSubWalk:
		return wire.Msg{Kind: k, Parts: walk}
	case wire.KindSubAck:
		return wire.Msg{Kind: k, Entries: ents, Parts: &wire.Parts{Topic: "t"}}
	case wire.KindPubWalk:
		return wire.Msg{Kind: k, Events: []*pubsub.Event{ev}, Parts: walk}
	case wire.KindDigest:
		return wire.Msg{Kind: k, Parts: &wire.Parts{IDs: []pubsub.EventID{ev.ID}}}
	case wire.KindPull:
		return wire.Msg{Kind: k, Parts: &wire.Parts{IDs: []pubsub.EventID{{Publisher: 0, Seq: 1}}}}
	case wire.KindLazy:
		return wire.Msg{Kind: k, Parts: &wire.Parts{IDs: []pubsub.EventID{{Publisher: 3, Seq: 2}}}}
	case wire.KindEager:
		ev.ID.Seq = 3 // not the events probe's event
		return wire.Msg{Kind: k, Hop: 1, Events: []*pubsub.Event{ev}, Parts: &wire.Parts{Topic: "t"}}
	}
	return wire.Msg{Kind: k}
}

// kindProbe is kindProbeMsg(k) addressed to node 0 of c — a subscriber of
// topic "t" that has published event 0/1 — from a sender it will act on:
// one in its view for a leave, peer 1 otherwise.
func kindProbe(c *Cluster, k wire.Kind) (simnet.NodeID, *wireMsg) {
	m := &wireMsg{Msg: kindProbeMsg(k)}
	if k == wire.KindLeave {
		return c.Node(0).View().IDs()[0], m
	}
	return 1, m
}
