package protocol

import (
	"math/bits"
	"sort"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// Semantic partner bias — the closing idea of §5.2: "In some cases we may
// also rely on semantic knowledge to bias the participation … and provide
// grouping according to this semantic knowledge." (Params.SemanticBias)
//
// Every peer summarises its interest as a 64-bit Bloom fingerprint of its
// subscription sources and piggybacks it on gossip messages (8 bytes).
// Receivers remember senders' fingerprints. That share of each round's
// partners is chosen among the known peers whose interest fingerprint
// overlaps the fingerprint of the batch *being sent* — events flow toward
// peers likely to deliver them. The remaining partners stay uniform,
// preserving the connectivity gossip's reliability depends on. A mixed
// batch has a blurred fingerprint that matches everyone, so the push step
// sends topic-coherent sub-batches.
//
// Topic subscriptions fingerprint exactly (an event's topic hashes to
// the same bits as a `topic == "t"` subscription); arbitrary content
// filters fall back to unbiased gossip for matching purposes.

// pushSemantic is the push step under semantic bias: one batch, split by
// topic, each part to its own biased partners.
func (p *Peer) pushSemantic(out *Out) {
	if !p.FreeRide {
		p.spread(out, "", p.selectFrom(&p.buffer, out), nil, 0)
	}
	p.buffer.Tick()
}

// splitByTopic partitions a batch into per-topic groups, in sorted topic
// order for determinism.
func splitByTopic(events []*pubsub.Event) [][]*pubsub.Event {
	byTopic := make(map[string][]*pubsub.Event)
	topics := make([]string, 0, 4)
	for _, ev := range events {
		if _, ok := byTopic[ev.Topic]; !ok {
			topics = append(topics, ev.Topic)
		}
		byTopic[ev.Topic] = append(byTopic[ev.Topic], ev)
	}
	sort.Strings(topics)
	out := make([][]*pubsub.Event, 0, len(topics))
	for _, t := range topics {
		out = append(out, byTopic[t])
	}
	return out
}

// interestFingerprint hashes each subscription source into a 64-bit Bloom
// filter (2 probes per subscription).
func interestFingerprint(in *pubsub.Interest) uint64 {
	var fp uint64
	for _, sub := range in.Subscriptions() {
		h := fnv64(sub.Source)
		fp |= 1 << (h & 63)
		fp |= 1 << ((h >> 8) & 63)
	}
	return fp
}

func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// eventFingerprint hashes an event's topic the same way a plain topic
// subscription hashes into interest fingerprints, so overlap between an
// event batch and a peer's interest is meaningful.
func eventFingerprint(ev *pubsub.Event) uint64 {
	h := fnv64(pubsub.Topic(ev.Topic).String())
	var fp uint64
	fp |= 1 << (h & 63)
	fp |= 1 << ((h >> 8) & 63)
	return fp
}

// batchFingerprint is the union over a batch's events.
func batchFingerprint(events []*pubsub.Event) uint64 {
	var fp uint64
	for _, ev := range events {
		fp |= eventFingerprint(ev)
	}
	return fp
}

// fingerprintOverlap counts shared set bits — a proxy for shared
// interest.
func fingerprintOverlap(a, b uint64) int { return bits.OnesCount64(a & b) }

// rememberFingerprint stores a peer's advertised fingerprint.
func (p *Peer) rememberFingerprint(from simnet.NodeID, fp uint64) {
	if fp == 0 || from == p.id {
		return
	}
	if p.x.peerFPs == nil {
		p.x.peerFPs = make(map[simnet.NodeID]uint64, 64)
	}
	p.x.peerFPs[from] = fp
}

// fpAds samples a couple of known (peer, fingerprint) pairs to piggyback,
// spreading profile knowledge epidemically (deterministic order, random
// choice from the peer's stream).
func (p *Peer) fpAds(k int) []wire.FPAd {
	peerFPs := p.x.peerFPs
	if len(peerFPs) == 0 || k <= 0 {
		return nil
	}
	ids := make([]int, 0, len(peerFPs))
	for id := range peerFPs {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	if k > len(ids) {
		k = len(ids)
	}
	out := make([]wire.FPAd, 0, k)
	for _, idx := range p.rand().Perm(len(ids))[:k] {
		id := simnet.NodeID(ids[idx])
		out = append(out, wire.FPAd{ID: uint32(id), FP: peerFPs[id]})
	}
	return out
}

// biasedPeers selects k partners for sending a batch with fingerprint
// targetFP: round(k·bias) of them are the known peers with the greatest
// interest overlap with the batch, the rest uniform. Falls back to
// uniform sampling while no fingerprints are known or the batch carries
// no topical signal.
func (p *Peer) biasedPeers(k int, targetFP uint64, out *Out) []simnet.NodeID {
	bias := p.par.SemanticBias
	if bias <= 0 || len(p.x.peerFPs) == 0 || targetFP == 0 {
		return p.partners(k, out)
	}
	peerFPs := p.x.peerFPs
	if bias > 1 {
		bias = 1
	}
	want := int(float64(k)*bias + 0.5)
	if want > k {
		want = k
	}

	// Collect all known peers whose interest overlaps the batch, in
	// deterministic (sorted) order, then sample `want` of them uniformly
	// with the peer's stream. Random choice within the matching set
	// matters: always picking the top-k would funnel all traffic to the
	// same few peers and starve the rest of the interest group.
	ids := make([]int, 0, len(peerFPs))
	for id := range peerFPs {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	matching := make([]simnet.NodeID, 0, len(ids))
	for _, idInt := range ids {
		id := simnet.NodeID(idInt)
		if id != p.id && fingerprintOverlap(targetFP, peerFPs[id]) > 0 {
			matching = append(matching, id)
		}
	}
	if want > len(matching) {
		want = len(matching)
	}
	picked := make([]simnet.NodeID, 0, k)
	used := make(map[simnet.NodeID]struct{}, k)
	for _, idx := range p.rand().Perm(len(matching))[:want] {
		picked = append(picked, matching[idx])
		used[matching[idx]] = struct{}{}
	}
	// Fill the remainder uniformly, skipping duplicates.
	for _, id := range p.partners(k, out) {
		if len(picked) >= k {
			break
		}
		if _, dup := used[id]; dup {
			continue
		}
		used[id] = struct{}{}
		picked = append(picked, id)
	}
	return picked
}
