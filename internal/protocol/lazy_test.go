package protocol

import (
	"slices"
	"testing"

	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// bigEvent is an event of live-udp-wan's size: a 1 KB payload, above
// the record size from which an event travels by id.
func bigEvent(pub, seq uint32) *pubsub.Event {
	e := event(pub, seq)
	e.Payload = make([]byte, 1024)
	return e
}

// lazyPush hands p a lazy push from peer from — the events in full and
// the ids — and returns its audit.
func lazyPush(p *Peer, from simnet.NodeID, evs []*pubsub.Event, ids []pubsub.EventID, out *Out) (novel, junk int) {
	novel, junk, _ = p.Recv(from, In{Kind: wire.KindLazy, Events: &events{evs: evs}, Parts: &wire.Parts{IDs: ids}}, out)
	return novel, junk
}

// TestBigEventsGoLazy: a round push carries a big event by its id, in a
// KindLazy beside the events still sent in full, from its first round
// on and however many copies of it come back; a small event never goes
// lazy, and a push with no big event is a plain KindEvents without
// parts. A cheat pads the lazy push too.
func TestBigEventsGoLazy(t *testing.T) {
	par := livelike()
	par.Batch = 8
	p := newPeer(1, &par, newLedger())
	var out Out
	recv(p, wire.KindReply, 2, offerFrom(2, 3, 4, 5), &out)
	big, small := bigEvent(0, 1), event(0, 2)
	recvEvents(p, 0, &events{evs: []*pubsub.Event{small}})
	p.Tick(&out)
	if m := out.Msgs[len(out.Msgs)-1]; m.Kind != wire.KindEvents || m.Parts != nil || !slices.Equal(m.Events, []*pubsub.Event{small}) {
		t.Fatalf("a push of a small event: kind %d, events %v, parts %+v; want it in a plain KindEvents", m.Kind, m.Events, m.Parts)
	}
	recvEvents(p, 0, &events{evs: []*pubsub.Event{big}})
	for copies := 0; copies <= 4; copies++ {
		if copies > 0 {
			recvEvents(p, 0, &events{evs: []*pubsub.Event{big, small}})
		}
		p.Tick(&out)
		m := out.Msgs[len(out.Msgs)-1]
		if m.Kind != wire.KindLazy || !slices.Equal(m.Events, []*pubsub.Event{small}) || !slices.Equal(m.Opt().IDs, []pubsub.EventID{big.ID}) {
			t.Fatalf("%d copies back: pushed kind %d, events %v, ids %v; want the small event and the big one's id", copies, m.Kind, m.Events, m.Opt().IDs)
		}
	}
	p.Cheat = true
	p.Tick(&out)
	if m := out.Msgs[len(out.Msgs)-1]; m.Kind != wire.KindLazy || m.Opt().Pad != JunkPadding {
		t.Fatalf("a cheat's lazy push: kind %d, padding %d", m.Kind, m.Opt().Pad)
	}
}

// TestLazyIDsRetireLikeCopies: an id of a seen event is a returned copy —
// the event retires on its first copy plus 4 × batch of them, exactly as
// with full copies of a big event (gossip's lazyRetireCopies) — its 8
// bytes are junk to the audit, and it is never pulled.
func TestLazyIDsRetireLikeCopies(t *testing.T) {
	for _, batch := range []int{1, 4, 8} {
		par := livelike()
		par.Batch = batch
		p := newPeer(1, &par, newLedger())
		ev := bigEvent(0, 1)
		recvEvents(p, 0, &events{evs: []*pubsub.Event{ev}})
		retiredOn := 0
		for k := 2; k <= 4*batch+2 && retiredOn == 0; k++ {
			var out Out
			novel, junk := lazyPush(p, 0, nil, []pubsub.EventID{ev.ID}, &out)
			if novel != 0 || junk != wire.IDWireSize || len(out.Msgs) != 0 {
				t.Fatalf("batch %d copy %d: audit novel %d junk %d, sent %+v", batch, k, novel, junk, out.Msgs)
			}
			if !p.Buffer().Contains(ev.ID) {
				retiredOn = k
			}
		}
		if want := 1 + 4*batch; retiredOn != want {
			t.Errorf("batch %d: retired on copy %d, want %d", batch, retiredOn, want)
		}
	}
}

// TestUnseenLazyIDsPullOnce: the ids a peer has not seen go back to their
// sender in exactly one KindPull and stay unseen — a second lazy push of
// them pulls again — until the answer, plain gossip from the sender's
// flat buffer, delivers them. A lazy push naming the peer itself as its
// sender pulls nothing.
func TestUnseenLazyIDsPullOnce(t *testing.T) {
	par := livelike()
	ledger := newLedger()
	p, q := newPeer(1, &par, ledger), newPeer(5, &par, ledger)
	p.Subscribe(pubsub.Topic("t"), &Out{})
	a, b, c, full := bigEvent(5, 1), bigEvent(5, 2), bigEvent(5, 3), bigEvent(5, 4)
	for _, e := range []*pubsub.Event{a, b, c, full} {
		recvEvents(q, 9, &events{evs: []*pubsub.Event{e}})
	}
	recvEvents(p, 9, &events{evs: []*pubsub.Event{b}})
	var out Out
	for round := 0; round < 2; round++ {
		novel, junk := lazyPush(p, 5, []*pubsub.Event{full}, []pubsub.EventID{a.ID, b.ID, c.ID}, &out)
		wantNovel := full.WireSize()
		if round > 0 {
			wantNovel = 0
		}
		if novel != wantNovel || junk != wire.IDWireSize+full.WireSize()-wantNovel {
			t.Fatalf("round %d: audit novel %d junk %d", round, novel, junk)
		}
		if len(out.Msgs) != 1 {
			t.Fatalf("round %d: sent %d messages, want one pull", round, len(out.Msgs))
		}
		m := out.Msgs[0]
		if m.Kind != wire.KindPull || m.Class != fairness.ClassInfra || !slices.Equal(m.To, []simnet.NodeID{5}) ||
			!slices.Equal(m.Opt().IDs, []pubsub.EventID{a.ID, c.ID}) {
			t.Fatalf("round %d: sent %+v to %v, want a pull of the two unseen ids to 5", round, m, m.To)
		}
		if p.Seen(a.ID) || p.Seen(c.ID) {
			t.Fatalf("round %d: a pulled id was marked seen before its event arrived", round)
		}
	}
	pull := out.Msgs[0]
	var answer Out
	q.Recv(1, In{Kind: pull.Kind, Parts: pull.Parts}, &answer)
	if len(answer.Msgs) != 1 || answer.Msgs[0].Kind != wire.KindEvents || !slices.Equal(answer.Msgs[0].To, []simnet.NodeID{1}) ||
		!slices.Equal(answer.Msgs[0].Events, []*pubsub.Event{a, c}) {
		t.Fatalf("the pull was answered with %+v", answer.Msgs)
	}
	recvEvents(p, 5, &events{evs: answer.Msgs[0].Events})
	if !p.Seen(a.ID) || !p.Seen(c.ID) || ledger.Account(1).Delivered != 4 {
		t.Fatalf("the answer delivered %d events, want all four", ledger.Account(1).Delivered)
	}
	lazyPush(p, 1, nil, []pubsub.EventID{{Publisher: 7, Seq: 7}}, &out)
	if len(out.Msgs) != 0 {
		t.Fatalf("a lazy push from the peer itself sent %+v", out.Msgs)
	}
}

// TestPullServedFromArchiveFirst: a pull is answered from the flat buffer
// when the peer keeps no archive — so not once the event has retired from
// it — and from the archive when it keeps one, which still holds what
// retired from the buffer.
func TestPullServedFromArchiveFirst(t *testing.T) {
	for _, antiEntropy := range []int{0, 1} {
		par := livelike()
		par.AntiEntropy = antiEntropy
		q := newPeer(5, &par, newLedger())
		ev := bigEvent(0, 1)
		serves := func() bool {
			var out Out
			q.Recv(1, In{Kind: wire.KindPull, Parts: &wire.Parts{IDs: []pubsub.EventID{ev.ID}}}, &out)
			return len(out.Msgs) == 1 && slices.Equal(out.Msgs[0].Events, []*pubsub.Event{ev})
		}
		recvEvents(q, 0, &events{evs: []*pubsub.Event{ev}})
		if !serves() {
			t.Fatalf("anti-entropy %d: a buffered event was not served", antiEntropy)
		}
		for k := 0; k < 4*par.Batch; k++ { // a big event retires on 4 × batch copies
			recvEvents(q, 0, &events{evs: []*pubsub.Event{ev}})
		}
		if q.Buffer().Contains(ev.ID) {
			t.Fatal("the event did not retire")
		}
		if got, want := serves(), antiEntropy > 0; got != want {
			t.Fatalf("anti-entropy %d: a retired event served %v, want %v", antiEntropy, got, want)
		}
	}
}
