package protocol

import "fairgossip/internal/simnet"

// detector is a peer's timeout-based failure detector. It owns no timers
// and sends no probes of its own: the probes ARE the Cyclon shuffle offers
// the peer already sends (and pays for as ClassInfra traffic), so
// detection changes not one byte of the wire protocol or the ledger. Each
// membership round the peer checks whether its previous shuffle target
// ever answered — with anything, not just the reply. Unanswered probes
// accumulate strikes; EvictStrikes consecutive ones evict the address from
// the view and quarantine it so third-party gossip cannot resurrect it,
// which turns "the entry eventually ages out" into "no live peer's view
// contains a dead address within a bounded number of rounds".
type detector struct {
	// strikes counts consecutive unanswered probes per address. It
	// deliberately lives outside the view: the probed entry leaves the
	// view during the shuffle, and evidence must survive the entry
	// being dropped and re-learned in between.
	strikes map[simnet.NodeID]int
	// dead maps quarantined addresses to the round they were evicted.
	dead map[simnet.NodeID]int
}

// alive records direct contact from id: all evidence against it is
// void, including a standing quarantine (a rejoined peer revives the
// moment it speaks for itself).
func (d *detector) alive(id simnet.NodeID) {
	if len(d.strikes) > 0 {
		delete(d.strikes, id)
	}
	if len(d.dead) > 0 {
		delete(d.dead, id)
	}
}

// strike records one unanswered probe against id and reports whether
// the address has now earned eviction.
func (d *detector) strike(id simnet.NodeID) bool {
	n := d.strikes[id] + 1
	if n >= EvictStrikes {
		delete(d.strikes, id)
		return true
	}
	d.strikes[id] = n
	return false
}

// bury quarantines id as of the given round.
func (d *detector) bury(id simnet.NodeID, round int) {
	d.dead[id] = round
}

// buried reports whether id is currently quarantined, lazily expiring
// stale verdicts (a quarantine is evidence, not a death certificate;
// after enough rounds the address gets the benefit of the doubt again).
func (d *detector) buried(id simnet.NodeID, round int) bool {
	at, ok := d.dead[id]
	if !ok {
		return false
	}
	if round-at > QuarantineRounds {
		delete(d.dead, id)
		return false
	}
	return true
}
