package live

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/transport"
	"fairgossip/internal/wire"
)

// refusingNet is a substrate that refuses: every k-th Send through any
// of its endpoints fails with errRefused and delivers nothing. A real
// network refuses rarely, so a send site whose failure path loses the
// envelope uncounted passes most runs; over this net the failure path
// runs dozens of times in every run.
type refusingNet struct {
	transport.Net
	every   uint64
	sends   atomic.Uint64
	refused atomic.Uint64
	lazy    atomic.Uint64 // KindLazy envelopes offered to Send
	pulls   atomic.Uint64 // KindPull envelopes offered to Send
}

var errRefused = errors.New("refusingNet: send refused")

func (n *refusingNet) Attach(id int, h transport.Handler) (transport.Transport, error) {
	tr, err := n.Net.Attach(id, h)
	if err != nil {
		return nil, err
	}
	return refusingEndpoint{Transport: tr, n: n}, nil
}

type refusingEndpoint struct {
	transport.Transport
	n *refusingNet
}

func (e refusingEndpoint) Send(to int, buf []byte) error {
	switch wire.Kind(buf[3] & 0x0f) {
	case wire.KindLazy:
		e.n.lazy.Add(1)
	case wire.KindPull:
		e.n.pulls.Add(1)
	}
	if e.n.sends.Add(1)%e.n.every == 0 {
		e.n.refused.Add(1)
		return errRefused
	}
	return e.Transport.Send(to, buf)
}

// TestRefusedSendsConserved pins drop conservation at every place a
// transport Send can fail: a cluster runs over a refusingNet, once per
// send site, and after Stop every charged envelope must be received or
// dropped — Sent == Recv + Dropped exactly — with each refusal counted
// once, in the bucket the site owns. Every cluster sends through the
// shaper, so the sites are the shaper's three:
//
//   - unshaped: shapedEndpoint.Send's pass-through of the inert profile
//     a cluster built without Config.Shape gets, whose error peer.send
//     counts in TransportDrops;
//   - inert: the same pass-through of an explicit zero Profile;
//   - lossy: shapedEndpoint.Send's pass-through of a zero-delay profile,
//     the same; the profile's loss adds ShaperDrops of its own;
//   - delayed: ShapedNet.deliver, which told the sender nil at Send time
//     and so counts the refusal itself, in ShaperDrops;
//
// and the zero-delay pass-through once more as 1 KB, with events big
// enough to go lazy, 30 % link loss and one more event a round until a
// peer has pulled one it missed, so that lazy pushes, pulls and the
// pulls' answers are among the sends refused (the loss adds ShaperDrops
// of its own).
//
// TestLiveInboxOverflowCounted owns the ingress side (a full inbox).
func TestRefusedSendsConserved(t *testing.T) {
	const n, every, enough = 8, 5, 20
	for _, tc := range []struct {
		name, site string
		shape      *transport.Profile
		deferred   bool // refusals are the shaper's to count
		lazy       bool // 1 KB events under loss, published until one is pulled
	}{
		{"unshaped", "shapedEndpoint.Send, no Config.Shape", nil, false, false},
		{"inert", "shapedEndpoint.Send, inert", &transport.Profile{}, false, false},
		{"lossy", "shapedEndpoint.Send, zero delay", &transport.Profile{Loss: 0.2}, false, false},
		{"delayed", "ShapedNet.deliver", &transport.Profile{Delay: time.Millisecond, Jitter: time.Millisecond}, true, false},
		{"1 KB", "shapedEndpoint.Send, zero delay, lazy pushes and pulls", nil, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rn *refusingNet
			payload := 32
			if tc.lazy {
				payload = 1024
			}
			c := mustCluster(t, Config{
				N: n, Fanout: 3, RoundPeriod: 2 * time.Millisecond, Seed: 31,
				Transport: func(size int) (transport.Net, error) {
					inner, err := transport.NewChanNet(size)
					rn = &refusingNet{Net: inner, every: every}
					return rn, err
				},
				Shape: tc.shape,
			})
			for i := 0; i < n; i++ {
				c.Subscribe(i, pubsub.MatchAll())
			}
			if tc.lazy {
				c.SetShape(transport.Profile{Loss: 0.3})
			}
			c.Start()
			for k := 0; k < 2*n; k++ {
				c.Publish(k%n, "t", nil, make([]byte, payload))
			}
			for k, deadline := 0, time.Now().Add(10*time.Second); tc.lazy && rn.pulls.Load() == 0 && time.Now().Before(deadline); k++ {
				c.Publish(k%n, "t", nil, make([]byte, payload))
				c.RunRounds(1)
			}
			pulled := func() bool { return !tc.lazy || rn.pulls.Load() > 0 }
			if !eventually(t, 10*time.Second, func() bool { return rn.refused.Load() >= enough && pulled() }) {
				c.Stop()
				t.Fatalf("%d refusals and %d pulls after %d sends, want %d refusals and a pull", rn.refused.Load(), rn.pulls.Load(), rn.sends.Load(), enough)
			}
			c.Stop()

			tr, refused := c.Traffic(), rn.refused.Load()
			bucket, name := tr.TransportDrops, "TransportDrops"
			if tc.deferred {
				bucket, name = tr.ShaperDrops, "ShaperDrops"
			}
			t.Logf("%s: sent %d = recv %d + dropped %d; refused %d, %s %d; %d lazy pushes, %d pulls",
				tc.site, tr.Sent, tr.Recv, tr.Dropped, refused, name, bucket, rn.lazy.Load(), rn.pulls.Load())
			if tr.Sent != tr.Recv+tr.Dropped {
				t.Errorf("sent %d != recv %d + dropped %d (leak %d): %+v",
					tr.Sent, tr.Recv, tr.Dropped, int64(tr.Sent)-int64(tr.Recv)-int64(tr.Dropped), tr)
			}
			if bucket == 0 || bucket != refused {
				t.Errorf("%s = %d, want the %d refusals: %+v", name, bucket, refused, tr)
			}
		})
	}
}
