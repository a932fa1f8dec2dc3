package membership

import (
	"math/rand"

	"fairgossip/internal/randutil"
	"fairgossip/internal/simnet"
)

// Cyclon implements the view-shuffling logic of the Cyclon protocol
// (Voulgaris, Gavidia, van Steen 2005), one of the partial-view
// maintenance schemes the paper points to for random partner selection.
//
// The embedding node owns message transport: it calls InitiateShuffle on
// its membership timer, sends the offer to the returned target, answers
// incoming offers with HandleShuffle, and completes the exchange with
// HandleReply. Each offer/reply carries ShuffleLen entries, so shuffle
// traffic is proportional to ShuffleLen — this is the "infrastructure
// messages" component of contribution.
type Cyclon struct {
	view       *View
	shuffleLen int

	// pending is a copy of the entries offered in the most recent
	// unanswered shuffle so that HandleReply can prefer replacing them.
	pending []Entry
	target  simnet.NodeID

	offer []Entry         // scratch every offer and reply is built in
	perm  []int           // scratch for offer permutations
	repls []simnet.NodeID // scratch for merge's replaceable list
}

// NewCyclon wraps a view with shuffle logic exchanging l entries per
// shuffle (coerced into [1, view cap]).
func NewCyclon(view *View, l int) *Cyclon {
	if l < 1 {
		l = 1
	}
	if l > view.Cap() {
		l = view.Cap()
	}
	buf := make([]Entry, 2*l) // offers and replies hold ≤ l entries: the scratch, then the pending copy
	return &Cyclon{view: view, shuffleLen: l, target: simnet.None, offer: buf[:0:l], pending: buf[l:l]}
}

// View returns the underlying view.
func (c *Cyclon) View() *View { return c.view }

// ShuffleLen returns the number of entries exchanged per shuffle.
func (c *Cyclon) ShuffleLen() int { return c.shuffleLen }

// InitiateShuffle starts a shuffle round: ages the view, removes the
// oldest peer as exchange target, and returns the offer to send it. ok is
// false when the view is empty. The offer always includes a fresh entry
// for the initiating node itself. It is scratch until the next
// InitiateShuffle or HandleShuffle.
func (c *Cyclon) InitiateShuffle(rng *rand.Rand) (target simnet.NodeID, offer []Entry, ok bool) {
	c.view.IncrementAges()
	oldest, found := c.view.Oldest()
	if !found {
		return simnet.None, nil, false
	}
	c.view.Remove(oldest.ID)

	offer = append(c.pickOffer(rng, c.shuffleLen-1), Entry{ID: c.view.Self(), Age: 0})
	// The victims are copied: an offer from a third peer, answered before
	// this shuffle's reply arrives, reuses the scratch.
	c.pending = append(c.pending[:0], offer...)
	c.target = oldest.ID
	return oldest.ID, offer, true
}

// pickOffer selects up to k random entries from the view (copies) into
// the offer scratch. The permutation runs over the live entries through a
// reused scratch too, with the same draws an rng.Perm over a copy would
// make.
func (c *Cyclon) pickOffer(rng *rand.Rand, k int) []Entry {
	entries := c.view.entries
	if k > len(entries) {
		k = len(entries)
	}
	if k < 0 {
		k = 0
	}
	out := c.offer[:0]
	for _, idx := range randutil.PermInto(rng, &c.perm, len(entries))[:k] {
		out = append(out, entries[idx])
	}
	return out
}

// HandleShuffle processes an incoming offer from peer `from` and returns
// the reply entries — scratch, on InitiateShuffle's terms. The received
// entries are merged into the view, preferring to overwrite the slots
// holding entries that were just sent back in the reply.
func (c *Cyclon) HandleShuffle(rng *rand.Rand, from simnet.NodeID, offer []Entry) (reply []Entry) {
	reply = c.pickOffer(rng, c.shuffleLen)
	c.merge(offer, reply, from)
	return reply
}

// HandleReply completes a shuffle this node initiated.
func (c *Cyclon) HandleReply(from simnet.NodeID, reply []Entry) {
	if from != c.target {
		// Stale or duplicate reply: merge conservatively without
		// replacement credit.
		c.merge(reply, nil, from)
		return
	}
	c.merge(reply, c.pending, from)
	c.pending = c.pending[:0]
	c.target = simnet.None
}

// merge folds received entries into the view: duplicates refresh ages,
// empty capacity is filled first, then slots holding `sent` entries are
// reused, and remaining entries are dropped (Cyclon keeps views bounded).
func (c *Cyclon) merge(received, sent []Entry, from simnet.NodeID) {
	// Deterministic replacement order: the order entries were sent.
	replaceable := c.repls[:0]
	for _, e := range sent {
		if e.ID != c.view.Self() {
			replaceable = append(replaceable, e.ID)
		}
	}
	for _, e := range received {
		if e.ID == c.view.Self() {
			continue
		}
		if c.view.Contains(e.ID) {
			c.view.AddAged(e) // refreshes age if younger
			// An entry we sent that came straight back was re-confirmed
			// by the exchange: it is no longer a replacement victim.
			// (Without this, both sides of a shuffle whose offer and
			// reply overlap can each evict their copy, and the address
			// vanishes from the overlay — silent address loss.)
			for i, victim := range replaceable {
				if victim == e.ID {
					replaceable = append(replaceable[:i], replaceable[i+1:]...)
					break
				}
			}
			continue
		}
		if c.view.Len() < c.view.Cap() {
			c.view.AddAged(e)
			continue
		}
		// Replace one of the entries we just shipped out, if any survive.
		for i, victim := range replaceable {
			if c.view.Contains(victim) {
				c.view.Remove(victim)
				c.view.AddAged(e)
				replaceable = append(replaceable[:i], replaceable[i+1:]...)
				break
			}
		}
		// View full and nothing replaceable: the entry is dropped.
	}
	// Knowing `from` is alive is free information; remember it if there
	// is room (keeps early views growing before first replies).
	if from != c.view.Self() && !c.view.Contains(from) && c.view.Len() < c.view.Cap() {
		c.view.AddAged(Entry{ID: from, Age: 0})
	}
	c.repls = replaceable[:0] // keep the grown scratch capacity
}
