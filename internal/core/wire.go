package core

import (
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
// simnet. Only the fields relevant to Kind are set.
type wireMsg struct {
	Kind msgKind

	// kindGossip / kindPubWalk
	Events []*pubsub.Event
	Topic  string             // topic-mode group tag ("" in content mode)
	Ads    []membership.Entry // piggybacked group membership ads
	Junk   int                // cheater padding bytes (counted, carries nothing)
	FP     uint64             // sender interest fingerprint (semantic bias)
	FPAds  []fpAd             // piggybacked third-party fingerprints

	// kindShuffle / kindShuffleReply / kindJoin / kindLeave / kindSubAck
	Entries []membership.Entry

	// kindSubWalk / kindPubWalk
	Origin simnet.NodeID
	Hops   int

	// kindDigest / kindPull
	IDs []pubsub.EventID

	// pool/refs make gossip envelopes reference-counted and recyclable
	// (pool.go). nil pool = plain allocated message; Retain/Release
	// no-op on it, and the walk paths' `fwd := *m` forwarding copies
	// stay plain (refs is an int32 manipulated via sync/atomic rather
	// than an atomic.Int32 precisely so those value copies stay legal).
	pool *msgPool
	refs int32
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
	switch m.Kind {
	case kindGossip, kindPubWalk:
		n += gossip.MsgWireSize(m.Events) - gossip.MsgHeaderSize
		n += topicTagSize + len(m.Topic)
		n += len(m.Ads) * membership.EntryWireSize
		n += m.Junk
		if m.FP != 0 {
			n += fingerprintWireSize
		}
		n += len(m.FPAds) * (4 + fingerprintWireSize)
		if m.Kind == kindPubWalk {
			n += 6 // origin + hops
		}
	case kindShuffle, kindShuffleReply, kindJoin, kindLeave, kindSubAck:
		n += len(m.Entries) * membership.EntryWireSize
		n += topicTagSize + len(m.Topic)
	case kindSubWalk:
		n += topicTagSize + len(m.Topic) + 6
	case kindDigest, kindPull:
		n += len(m.IDs) * eventIDWireSize
	}
	return n
}
