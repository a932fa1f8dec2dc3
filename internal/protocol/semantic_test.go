package protocol

import (
	"testing"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

// semanticPeer is peer 0 of the population under the full sampler, with
// semantic bias at the given share.
func semanticPeer(bias float64) *Peer {
	par := livelike()
	par.ViewCap, par.SemanticBias = 0, bias
	return newPeer(0, &par, newLedger())
}

func TestInterestFingerprint(t *testing.T) {
	var a, b pubsub.Interest
	a.Subscribe(pubsub.Topic("sports"))
	b.Subscribe(pubsub.Topic("sports"))
	if interestFingerprint(&a) != interestFingerprint(&b) {
		t.Fatal("identical interest must fingerprint identically")
	}
	var c pubsub.Interest
	c.Subscribe(pubsub.Topic("finance"))
	if interestFingerprint(&a) == interestFingerprint(&c) {
		t.Fatal("distinct topics collided (unlikely)")
	}
	var empty pubsub.Interest
	if interestFingerprint(&empty) != 0 {
		t.Fatal("empty interest must fingerprint to 0")
	}
	// Overlap is monotone in shared subscriptions.
	var both pubsub.Interest
	both.Subscribe(pubsub.Topic("sports"))
	both.Subscribe(pubsub.Topic("finance"))
	fa, fc, fb := interestFingerprint(&a), interestFingerprint(&c), interestFingerprint(&both)
	if fingerprintOverlap(fa, fb) == 0 || fingerprintOverlap(fc, fb) == 0 {
		t.Fatal("superset interest must overlap both parts")
	}
	if fingerprintOverlap(fa, fc) >= fingerprintOverlap(fa, fb) {
		t.Fatal("disjoint interest overlaps as much as shared interest")
	}
}

func TestEventFingerprintMatchesTopicSubscription(t *testing.T) {
	var in pubsub.Interest
	in.Subscribe(pubsub.Topic("sports"))
	ev := &pubsub.Event{Topic: "sports"}
	if fingerprintOverlap(eventFingerprint(ev), interestFingerprint(&in)) == 0 {
		t.Fatal("event must overlap a subscription to its topic")
	}
	other := &pubsub.Event{Topic: "weather"}
	if eventFingerprint(other) == eventFingerprint(ev) {
		t.Fatal("distinct topics collided (unlikely)")
	}
	if batchFingerprint([]*pubsub.Event{ev, other}) !=
		eventFingerprint(ev)|eventFingerprint(other) {
		t.Fatal("batch fingerprint must union event fingerprints")
	}
}

func TestBiasedPeersFallsBackUniform(t *testing.T) {
	nd := semanticPeer(0.5)
	var out Out
	// No fingerprints learned yet: uniform sampling still works.
	got := nd.biasedPeers(4, 0xFFFF, &out)
	if len(got) == 0 {
		t.Fatal("no partners sampled")
	}
	for _, id := range got {
		if id == nd.ID() {
			t.Fatal("sampled self")
		}
	}
	// Zero batch fingerprint (pure content filters) also falls back.
	if got := nd.biasedPeers(4, 0, &out); len(got) == 0 {
		t.Fatal("zero-fingerprint fallback failed")
	}
}

func TestBiasedPeersPrefersBatchOverlap(t *testing.T) {
	nd := semanticPeer(1.0)
	var out Out

	var same, other pubsub.Interest
	same.Subscribe(pubsub.Topic("sports"))
	other.Subscribe(pubsub.Topic("weather"))
	nd.rememberFingerprint(5, interestFingerprint(&same))
	nd.rememberFingerprint(9, interestFingerprint(&other))

	batch := eventFingerprint(&pubsub.Event{Topic: "sports"})
	counts := map[simnet.NodeID]int{}
	for trial := 0; trial < 50; trial++ {
		for _, id := range nd.biasedPeers(1, batch, &out) {
			counts[id]++
		}
	}
	if counts[5] < 45 {
		t.Fatalf("batch-matching peer picked only %d/50 times with full bias", counts[5])
	}
}

func TestBiasedPeersNoDuplicates(t *testing.T) {
	nd := semanticPeer(0.5)
	var out Out
	var in pubsub.Interest
	in.Subscribe(pubsub.Topic("x"))
	fp := interestFingerprint(&in)
	for id := simnet.NodeID(1); id <= 10; id++ {
		nd.rememberFingerprint(id, fp)
	}
	batch := eventFingerprint(&pubsub.Event{Topic: "x"})
	for trial := 0; trial < 20; trial++ {
		got := nd.biasedPeers(6, batch, &out)
		seen := map[simnet.NodeID]bool{}
		for _, id := range got {
			if seen[id] {
				t.Fatalf("duplicate partner %d in %v", id, got)
			}
			seen[id] = true
		}
	}
}
