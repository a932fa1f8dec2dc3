package protocol

import (
	"fmt"
	"slices"
	"testing"

	"fairgossip/internal/membership"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// The fuzz bytes are a script of inputs to one Cyclon peer (id 0 of
// population, livelike's configuration). The first byte picks the
// extensions its Params run; each input after it is an opcode byte and its
// operands. A script that runs out of bytes reads zeros.
const (
	opTick      = iota // Tick, then Adapt
	opRecv             // kind (any byte), from, entry count, (id, age)…, event count, (publisher, seq)…, parts; an eager push's hop last
	opJoin             // seed (population: simnet.None)
	opLeave            //
	opSubscribe        // topic
	opPublish          // topic
	opCount
)

// The extension bits of the first byte.
const (
	extTopics      = 1 << iota // Params.Topics
	extSemantic                // Params.SemanticBias 0.5
	extAntiEntropy             // Params.AntiEntropy 2
)

// The parts bits of an opRecv, each with the operands that follow, in
// this order.
const (
	partTopic = 1 << iota // the tag "t"
	partWalk              // origin, hops
	partAds               // count, (id, age)…
	partFP                // a fingerprint byte
	partIDs               // count, (publisher, seq)…
	partPad               // cheat padding
)

// topics are the topics a script subscribes and publishes to, by index.
var topics = [...]string{"t", "u"}

// script builds seed-corpus inputs; start one with peer.
type script []byte

// peer starts a script for a peer running the given extensions.
func peer(exts byte) script { return script{exts} }

func (s script) tick(n int) script {
	for ; n > 0; n-- {
		s = append(s, opTick)
	}
	return s
}

// recv appends a message of kind k with entries, events of from's
// publication (by seq) and the parts bits, whose operands follow in x.
func (s script) recv(k int, from byte, entries []membership.Entry, seqs []byte, parts byte, x ...byte) script {
	s = append(s, opRecv, byte(k), from, byte(len(entries)))
	for _, e := range entries {
		s = append(s, byte(e.ID), byte(e.Age))
	}
	s = append(s, byte(len(seqs)))
	for _, seq := range seqs {
		s = append(s, from, seq)
	}
	return append(append(s, parts), x...)
}

func (s script) membership(k int, from byte, entries ...membership.Entry) script {
	return s.recv(k, from, entries, nil, 0)
}

func (s script) events(from byte, seqs ...byte) script {
	return s.recv(int(wire.KindEvents), from, nil, seqs, 0)
}

// eager appends an eager push of hop hop with events of from's
// publication (by seq).
func (s script) eager(from, hop byte, seqs ...byte) script {
	return s.recv(int(wire.KindEager), from, nil, seqs, 0, hop)
}

func (s script) join(seed byte) script       { return append(s, opJoin, seed) }
func (s script) leave() script               { return append(s, opLeave) }
func (s script) subscribe(topic byte) script { return append(s, opSubscribe, topic) }
func (s script) publish(topic byte) script   { return append(s, opPublish, topic) }

// FuzzPeerInputs drives one peer, under a fuzz-drawn choice of topic
// groups, semantic bias and push-pull, through arbitrary sequences of
// every input — Tick, Recv of any kind byte from any sender (itself
// included) with any entries, events, parts and hop, Join, Leave,
// Subscribe and Publish — and checks after each that nothing panicked,
// that the view holds at most ViewCap distinct entries and never the peer
// itself, that nothing the peer sends targets it (but the ack of its own
// subscription walk come back to it), that no eager push it sends is past
// hop EagerHops, and that a kind which is neither membership nor events
// nor an eager or lazy push and its pull nor run by the peer's Params
// comes back unhandled and leaves the peer as it was.
func FuzzPeerInputs(f *testing.F) {
	k := func(kind Kind) int { return int(kind) }
	e := func(id, age int) membership.Entry { return membership.Entry{ID: simnet.NodeID(id), Age: age} }
	for _, s := range []script{
		// TestTickEmitsOneBatchToFanoutViewMembers: an idle founder ticks.
		peer(0).membership(k(wire.KindReply), 1, e(2, 0), e(3, 0), e(4, 0), e(5, 0), e(6, 0)).tick(8),
		// TestDetector: shuffle targets that answer, one that stays silent.
		peer(0).membership(k(wire.KindReply), 1, e(2, 1), e(3, 1), e(4, 1)).
			tick(1).membership(k(wire.KindReply), 1).tick(1).membership(k(wire.KindReply), 3).tick(6).
			membership(k(wire.KindOffer), 3, e(2, 1), e(9, 1)).events(2),
		// TestFirstCopyPlusTwoBatchesOfDuplicatesRetires: one event, many copies.
		peer(0).events(1, 1).events(1, 1).events(1, 1).events(1, 1).events(1, 1, 2).tick(2),
		// TestJoinerStopsAfterJoinAttempts: a silent seed, then a reply from elsewhere.
		peer(0).join(1).tick(64).membership(k(wire.KindReply), 7, e(8, 1)).tick(1).join(population),
		// TestLeaveHandsOverFreshestEntries: a populated peer leaves, a neighbour's leave arrives.
		peer(0).membership(k(wire.KindReply), 1, e(2, 2), e(3, 3), e(4, 4), e(5, 5), e(6, 6)).leave().
			membership(k(wire.KindLeave), 3, e(0, 0), e(7, 1), e(7, 1)).membership(k(wire.KindOffer), 1, e(3, 0)),
		// TestJoinBootstrapsTheJoiner: a joiner announces itself to this seed.
		peer(0).membership(k(wire.KindReply), 1, e(2, 0), e(3, 0)).membership(k(wire.KindJoin), 9).tick(1),
		// Self as sender and entry, duplicate entries, self as seed.
		peer(0).membership(k(wire.KindOffer), 0, e(0, 0), e(1, 0), e(1, 0)).events(0, 1),
		peer(0).join(0).tick(4),
		// Every extension's kind at a peer that runs none of them.
		peer(0).membership(k(wire.KindReply), 1, e(2, 0)).publish(0).
			recv(k(wire.KindSubWalk), 2, nil, nil, partTopic|partWalk, 0, 3).
			recv(k(wire.KindSubAck), 2, []membership.Entry{e(3, 0)}, nil, partTopic).
			recv(k(wire.KindPubWalk), 2, nil, []byte{1}, partTopic|partWalk, 2, 4).
			recv(k(wire.KindDigest), 2, nil, nil, partIDs, 1, 2, 1).
			recv(k(wire.KindPull), 2, nil, nil, partIDs, 1, 0, 1).recv(k(wire.NumKinds), 2, nil, nil, 0),
		// TestExtensionsThroughOut's topic groups: walks into, out of and
		// through a group (one the peer's own, come back), gossip with ads.
		peer(extTopics).membership(k(wire.KindReply), 1, e(2, 0), e(3, 0)).subscribe(0).
			recv(k(wire.KindSubAck), 2, []membership.Entry{e(2, 0), e(4, 1)}, nil, partTopic).
			recv(k(wire.KindSubWalk), 5, nil, nil, partTopic|partWalk, 0, 3).
			recv(k(wire.KindSubWalk), 5, nil, nil, partWalk, 6, 3).publish(1).
			recv(k(wire.KindPubWalk), 3, nil, []byte{1, 2}, partTopic|partWalk, 3, 2).
			recv(k(wire.KindEvents), 2, nil, []byte{3}, partTopic|partAds, 2, 7, 0, 0, 0).tick(8),
		// TestExtensionsThroughOut's push-pull, and semantic bias: a
		// digest, a pull, fingerprints.
		peer(extSemantic|extAntiEntropy).membership(k(wire.KindReply), 1, e(2, 0), e(3, 0)).subscribe(0).publish(0).
			recv(k(wire.KindEvents), 2, nil, []byte{1}, partFP|partPad, 0xff).tick(2).
			recv(k(wire.KindDigest), 3, nil, nil, partIDs, 2, 3, 1, 0, 1).
			recv(k(wire.KindPull), 3, nil, nil, partIDs, 1, 0, 1).tick(4),
		// Lazy push: a seen id and an unseen one (a pull), the same from
		// the peer itself (no pull), and a pull the flat buffer answers.
		peer(0).membership(k(wire.KindReply), 1, e(2, 0)).publish(0).
			recv(k(wire.KindLazy), 2, nil, []byte{3}, partIDs, 2, 0, 1, 2, 5).
			recv(k(wire.KindLazy), 0, nil, nil, partIDs|partPad, 1, 2, 6).
			recv(k(wire.KindPull), 2, nil, nil, partIDs, 2, 0, 1, 0, 7).tick(2),
		// Eager pushes: relayed while the hop is below EagerHops, at most
		// once per event, hostile hops 0 and 255 included; the last hop
		// delivered only; a copy from the peer itself.
		peer(0).membership(k(wire.KindReply), 1, e(2, 0), e(3, 0), e(4, 0)).
			eager(2, 1, 1, 2).eager(3, 1, 1).eager(3, 0, 3).eager(4, 0, 3).eager(4, 255, 4).
			eager(2, EagerHops-1, 5).eager(2, EagerHops, 6).eager(0, 1, 7).tick(2),
		// Eager pushes in a topic group (tagged, with ads) and under
		// semantic bias (fingerprints) and push-pull.
		peer(extTopics).membership(k(wire.KindReply), 1, e(2, 0), e(3, 0)).subscribe(0).
			recv(k(wire.KindSubAck), 2, []membership.Entry{e(2, 0), e(4, 1)}, nil, partTopic).
			recv(k(wire.KindEager), 2, nil, []byte{1, 2}, partTopic|partAds, 1, 7, 0, 1).
			recv(k(wire.KindEager), 3, nil, []byte{3}, partTopic|partPad, 2).tick(2),
		peer(extSemantic|extAntiEntropy).membership(k(wire.KindReply), 1, e(2, 0), e(3, 0)).subscribe(0).
			recv(k(wire.KindEager), 2, nil, []byte{1, 2}, partFP, 0x7f, 1).
			recv(k(wire.KindEager), 3, nil, []byte{3}, partFP|partPad, 0x7f, 255).tick(2),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		id := func() simnet.NodeID { return simnet.NodeID(next() % population) }
		par := livelike()
		exts := next()
		par.Topics = exts&extTopics != 0
		if exts&extSemantic != 0 {
			par.SemanticBias = 0.5
		}
		if exts&extAntiEntropy != 0 {
			par.AntiEntropy = 2
		}
		ledger := newLedger()
		p := newPeer(0, &par, ledger)
		state := func() string {
			var group []membership.Entry
			if v := p.GroupView("t"); v != nil {
				group = v.Entries()
			}
			return fmt.Sprint(p.View().Entries(), p.Buffer().Len(), ledger.Account(0), p.WalkRelays(), group)
		}
		var out Out
		for step := 0; len(data) > 0; step++ {
			switch op := next() % opCount; op {
			case opTick:
				p.Tick(&out)
				p.Adapt()
			case opRecv:
				kind, from := Kind(next()), id()
				m := In{Entries: make([]wire.ViewEntry, next()%(ShuffleLen+3)), Kind: kind}
				for i := range m.Entries {
					m.Entries[i] = wire.ViewEntry{ID: uint32(id()), Age: uint16(next() % 8)}
				}
				b := &events{}
				for n := next() % 5; n > 0; n-- {
					b.evs = append(b.evs, event(uint32(id()), uint32(next()%8)))
				}
				m.Events = b
				parts := next()
				if parts != 0 {
					m.Parts = &wire.Parts{}
					if parts&partTopic != 0 {
						m.Parts.Topic = "t"
					}
					if parts&partWalk != 0 {
						m.Parts.Origin, m.Parts.Hops = uint32(id()), uint16(next()%4)
					}
					if parts&partAds != 0 {
						for n := next() % 4; n > 0; n-- {
							m.Parts.Ads = append(m.Parts.Ads, wire.ViewEntry{ID: uint32(id()), Age: uint16(next() % 8)})
						}
					}
					if parts&partFP != 0 {
						m.Parts.FP = uint64(next()) << 8
					}
					if parts&partIDs != 0 {
						for n := next() % 5; n > 0; n-- {
							m.Parts.IDs = append(m.Parts.IDs, pubsub.EventID{Publisher: uint32(id()), Seq: uint32(next() % 8)})
						}
					}
					if parts&partPad != 0 {
						m.Parts.Pad = JunkPadding
					}
				}
				if kind == wire.KindEager {
					m.Hop = uint8(next())
				}
				before := state()
				_, _, ok := p.Recv(from, m, &out)
				runs := kind == wire.KindEvents || kind == wire.KindEager || kind == wire.KindLazy || kind == wire.KindPull ||
					(kind >= wire.KindOffer && kind <= wire.KindLeave) ||
					(par.Topics && kind >= wire.KindSubWalk && kind <= wire.KindPubWalk) ||
					(par.AntiEntropy > 0 && kind == wire.KindDigest)
				if ok != runs {
					t.Fatalf("step %d: Recv of kind %d reported handled %v under %+v", step, kind, ok, par)
				}
				if !ok && (len(out.Msgs) > 0 || state() != before) {
					t.Fatalf("step %d: unhandled kind %d moved the peer: sends %+v", step, kind, out.Msgs)
				}
			case opJoin:
				seed := next() % (population + 1)
				if seed == population {
					p.Join(simnet.None, &out)
				} else {
					p.Join(simnet.NodeID(seed), &out)
				}
			case opLeave:
				p.Leave(&out)
			case opSubscribe:
				p.Subscribe(pubsub.Topic(topics[next()%len(topics)]), &out)
			case opPublish:
				p.Publish(topics[next()%len(topics)], nil, []byte("x"), &out)
			}
			ids := p.View().IDs()
			if len(ids) > par.ViewCap {
				t.Fatalf("step %d: view of %d entries exceeds ViewCap %d: %v", step, len(ids), par.ViewCap, ids)
			}
			seen := map[simnet.NodeID]bool{}
			for _, q := range ids {
				if q == p.ID() || seen[q] {
					t.Fatalf("step %d: view %v holds the peer itself or a duplicate", step, ids)
				}
				seen[q] = true
			}
			for _, m := range out.Msgs {
				if slices.Contains(m.To, p.ID()) {
					t.Fatalf("step %d: the peer sent itself %+v", step, m)
				}
				if m.Kind == wire.KindEager && (m.Hop < 1 || m.Hop > EagerHops) {
					t.Fatalf("step %d: the peer sent an eager push of hop %d", step, m.Hop)
				}
			}
		}
	})
}
