package core

import (
	"sync/atomic"

	"fairgossip/internal/gossip"
	"fairgossip/internal/membership"
	"fairgossip/internal/protocol"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

// msgKind discriminates FairGossip wire messages.
type msgKind uint8

// The membership kinds are the machine's, value for value, so both
// directions convert with a cast.
const (
	kindShuffle      = msgKind(protocol.KindOffer) // Cyclon offer (infra)
	kindShuffleReply = msgKind(protocol.KindReply) // Cyclon answer, a joiner's bootstrap (infra)
	kindJoin         = msgKind(protocol.KindJoin)  // a (re)joiner's announcement to its seed (infra)
	kindLeave        = msgKind(protocol.KindLeave) // graceful departure + hand-off entries (infra)

	kindGossip  msgKind = iota + 16 // event dissemination (app)
	kindSubWalk                     // subscription random walk (infra)
	kindSubAck                      // walk answer: group bootstrap (infra)
	kindPubWalk                     // publisher hand-off walk (infra)
	kindDigest                      // push-pull: the archive's event ids (infra)
	kindPull                        // push-pull: the ids a digest's receiver lacks (infra)
)

// fpAd is a third-party interest-fingerprint advertisement: profile
// knowledge spreads epidemically so semantic bias has peers to choose
// from (semantic.go).
type fpAd struct {
	ID simnet.NodeID
	FP uint64
}

// wireMsg is the single multiplexed payload type FairGossip sends over
// simnet. Only the fields relevant to Kind are set. Sim-huge keeps a
// hundred thousand of them in flight, so what only topic groups, walks,
// semantic bias and push-pull set lives behind ext.
type wireMsg struct {
	Kind msgKind
	Junk int32        // kindGossip: cheater padding bytes (counted, carries nothing)
	refs atomic.Int32 // a pooled envelope's reference count (pool.go)

	Events  []*pubsub.Event    // kindGossip / kindPubWalk
	Entries []membership.Entry // kindShuffle / kindShuffleReply / kindJoin / kindLeave / kindSubAck

	ext  *wireExt // nil when none of its fields is set
	pool *msgPool // nil: a plain allocated message; Retain/Release no-op on it
}

// wireExt holds a message's less common fields. A pooled envelope keeps
// its extension (and the Ads array) across reuse.
type wireExt struct {
	Topic string             // topic-mode group tag ("" in content mode)
	Ads   []membership.Entry // kindGossip: piggybacked group membership ads
	FP    uint64             // kindGossip: sender interest fingerprint (semantic bias)
	FPAds []fpAd             // kindGossip: piggybacked third-party fingerprints

	Origin simnet.NodeID // kindSubWalk / kindPubWalk
	Hops   int

	IDs []pubsub.EventID // kindDigest / kindPull
}

// noExt is what a message without an extension reads as. Never written.
var noExt wireExt

// opt returns the extension for reading: all zero when there is none.
func (m *wireMsg) opt() *wireExt {
	if m.ext == nil {
		return &noExt
	}
	return m.ext
}

// extend returns the extension for writing, allocating it on first use.
func (m *wireMsg) extend() *wireExt {
	if m.ext == nil {
		m.ext = new(wireExt)
	}
	return m.ext
}

// newExtMsg returns a plain-allocated message of the given kind and
// extension, both in one allocation.
func newExtMsg(kind msgKind, x wireExt) *wireMsg {
	both := &struct {
		m wireMsg
		x wireExt
	}{wireMsg{Kind: kind}, x}
	both.m.ext = &both.x
	return &both.m
}

// A gossip message is the machine's protocol.Batch as it stands: the
// simulator passes events by reference, already materialised.

func (m *wireMsg) Len() int { return len(m.Events) }

func (m *wireMsg) Head(i int) (pubsub.EventID, int) {
	return m.Events[i].ID, m.Events[i].WireSize()
}

func (m *wireMsg) Event(i int) *pubsub.Event { return m.Events[i] }

const (
	wireHeaderSize  = 8
	topicTagSize    = 2 // length prefix; topic bytes added separately
	eventIDWireSize = 8
)

// size computes the accounting size of a wire message.
func (m *wireMsg) size() int {
	n := wireHeaderSize
	x := m.opt()
	switch m.Kind {
	case kindGossip, kindPubWalk:
		n += gossip.MsgWireSize(m.Events) - gossip.MsgHeaderSize
		n += topicTagSize + len(x.Topic)
		n += len(x.Ads) * membership.EntryWireSize
		n += int(m.Junk)
		if x.FP != 0 {
			n += fingerprintWireSize
		}
		n += len(x.FPAds) * (4 + fingerprintWireSize)
		if m.Kind == kindPubWalk {
			n += 6 // origin + hops
		}
	case kindShuffle, kindShuffleReply, kindJoin, kindLeave, kindSubAck:
		n += len(m.Entries) * membership.EntryWireSize
		n += topicTagSize + len(x.Topic)
	case kindSubWalk:
		n += topicTagSize + len(x.Topic) + 6
	case kindDigest, kindPull:
		n += len(x.IDs) * eventIDWireSize
	}
	return n
}
