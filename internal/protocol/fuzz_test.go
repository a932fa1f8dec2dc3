package protocol

import (
	"slices"
	"testing"

	"fairgossip/internal/membership"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// The fuzz bytes are a script of inputs to one Cyclon peer (id 0 of
// population, livelike's configuration). Each input is an opcode byte and
// its operands; a script that runs out of bytes reads zeros.
const (
	opTick       = iota // Tick, then Adapt
	opMembership        // kind (any of the family), from, entry count, (id, age)…
	opEvents            // from, event count, (publisher, seq)…
	opJoin              // seed (population: simnet.None)
	opLeave
	opCount
)

// script builds seed-corpus inputs.
type script []byte

func (s script) tick(n int) script {
	for ; n > 0; n-- {
		s = append(s, opTick)
	}
	return s
}

func (s script) membership(k int, from byte, entries ...membership.Entry) script {
	s = append(s, opMembership, byte(k), from, byte(len(entries)))
	for _, e := range entries {
		s = append(s, byte(e.ID), byte(e.Age))
	}
	return s
}

func (s script) events(from byte, seqs ...byte) script {
	s = append(s, opEvents, from, byte(len(seqs)))
	for _, seq := range seqs {
		s = append(s, from, seq)
	}
	return s
}

func (s script) join(seed byte) script { return append(s, opJoin, seed) }
func (s script) leave() script         { return append(s, opLeave) }

// FuzzPeerInputs drives one peer through arbitrary sequences of every input
// that names another peer — Tick, RecvMembership of every wire kind from
// any sender (itself included) with any entries (itself and duplicates
// included), RecvEvents, Join and Leave — and checks after each that
// nothing panicked, that the view holds at most ViewCap distinct entries
// and never the peer itself, that nothing the peer sends targets it, and
// that a kind which is not membership left the view and the sends alone.
func FuzzPeerInputs(f *testing.F) {
	k := func(kind Kind) int { return int(kind) }
	e := func(id, age int) membership.Entry { return membership.Entry{ID: simnet.NodeID(id), Age: age} }
	for _, s := range []script{
		// TestTickEmitsOneBatchToFanoutViewMembers: an idle founder ticks.
		script{}.membership(k(wire.KindReply), 1, e(2, 0), e(3, 0), e(4, 0), e(5, 0), e(6, 0)).tick(8),
		// TestDetector: shuffle targets that answer, one that stays silent.
		script{}.membership(k(wire.KindReply), 1, e(2, 1), e(3, 1), e(4, 1)).
			tick(1).membership(k(wire.KindReply), 1).tick(1).membership(k(wire.KindReply), 3).tick(6).
			membership(k(wire.KindOffer), 3, e(2, 1), e(9, 1)).events(2),
		// TestFirstCopyPlusTwoBatchesOfDuplicatesRetires: one event, many copies.
		script{}.events(1, 1).events(1, 1).events(1, 1).events(1, 1).events(1, 1, 2).tick(2),
		// TestJoinerStopsAfterJoinAttempts: a silent seed, then a reply from elsewhere.
		script{}.join(1).tick(64).membership(k(wire.KindReply), 7, e(8, 1)).tick(1).join(population),
		// TestLeaveHandsOverFreshestEntries: a populated peer leaves, a neighbour's leave arrives.
		script{}.membership(k(wire.KindReply), 1, e(2, 2), e(3, 3), e(4, 4), e(5, 5), e(6, 6)).leave().
			membership(k(wire.KindLeave), 3, e(0, 0), e(7, 1), e(7, 1)).membership(k(wire.KindOffer), 1, e(3, 0)),
		// TestJoinBootstrapsTheJoiner: a joiner announces itself to this seed.
		script{}.membership(k(wire.KindReply), 1, e(2, 0), e(3, 0)).membership(k(wire.KindJoin), 9).tick(1),
		// Self as sender and entry, duplicate entries, self as seed.
		script{}.membership(k(wire.KindOffer), 0, e(0, 0), e(1, 0), e(1, 0)).events(0, 1),
		script{}.join(0).tick(4),
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
		p := newPeer(0, &par, newLedger())
		var out Out
		for step := 0; len(data) > 0; step++ {
			switch op := next() % opCount; op {
			case opTick:
				p.Tick(&out)
				p.Adapt()
			case opMembership:
				kind, from := Kind(next()%int(wire.NumKinds)), id()
				entries := make([]wire.ViewEntry, next()%(ShuffleLen+3))
				for i := range entries {
					entries[i] = wire.ViewEntry{ID: uint32(id()), Age: uint16(next() % 8)}
				}
				before := p.View().Entries()
				p.RecvMembership(kind, from, entries, &out)
				if kind != wire.KindOffer && kind != wire.KindReply && kind != wire.KindJoin && kind != wire.KindLeave &&
					(len(out.Sends) > 0 || !slices.Equal(p.View().Entries(), before)) {
					t.Fatalf("step %d: kind %d is not membership but moved the peer: sends %+v", step, kind, out.Sends)
				}
			case opEvents:
				from, b := id(), &events{}
				for n := next() % 5; n > 0; n-- {
					b.evs = append(b.evs, event(uint32(id()), uint32(next()%8)))
				}
				p.RecvEvents(from, p.Buffer(), b)
			case opJoin:
				seed := next() % (population + 1)
				if seed == population {
					p.Join(simnet.None, &out)
				} else {
					p.Join(simnet.NodeID(seed), &out)
				}
			case opLeave:
				p.Leave(&out)
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
			for _, s := range out.Sends {
				if s.To == p.ID() {
					t.Fatalf("step %d: the peer sent itself %+v", step, s)
				}
			}
		}
	})
}
