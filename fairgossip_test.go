package fairgossip_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fairgossip"
)

func TestFacadeLiveRoundTrip(t *testing.T) {
	c, err := fairgossip.NewLive(fairgossip.LiveConfig{
		N: 8, RoundPeriod: 5 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	for i := 0; i < 8; i++ {
		if _, ok := c.Subscribe(i, fairgossip.MustParseFilter(`price > 100`)); !ok {
			t.Fatal("subscribe failed")
		}
		c.OnDeliver(i, func(*fairgossip.Event) { got.Add(1) })
	}
	c.Start()
	defer c.Stop()
	c.Publish(0, "ticks", []fairgossip.Attr{{Key: "price", Val: fairgossip.Num(250)}}, nil)
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() != 8 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got.Load() != 8 {
		t.Fatalf("delivered %d of 8", got.Load())
	}
	if r := c.Report(); r.N != 8 {
		t.Fatalf("report N = %d", r.N)
	}
}

// TestFacadeLiveUDPRoundTrip: the LiveConfig.Transport knob surfaces
// through NewLive — the same facade program runs over real loopback
// sockets with the wire codec on every link.
func TestFacadeLiveUDPRoundTrip(t *testing.T) {
	c, err := fairgossip.NewLive(fairgossip.LiveConfig{
		N: 6, RoundPeriod: 5 * time.Millisecond, Seed: 2,
		Transport: fairgossip.TransportUDP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	for i := 0; i < 6; i++ {
		if _, ok := c.Subscribe(i, fairgossip.MatchAll()); !ok {
			t.Fatal("subscribe failed")
		}
		c.OnDeliver(i, func(*fairgossip.Event) { got.Add(1) })
	}
	c.Start()
	defer c.Stop()
	c.Publish(0, "ticks", nil, []byte("over udp"))
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() != 6 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got.Load() != 6 {
		t.Fatalf("delivered %d of 6", got.Load())
	}
	if tr := c.Traffic(); tr.Sent == 0 {
		t.Fatal("no transport traffic counted")
	}
	if !strings.HasPrefix(c.Addr(0), "127.0.0.1:") {
		t.Fatalf("Addr(0) = %q, want a loopback socket", c.Addr(0))
	}
}

// TestFacadeScenarioLiveUDP: the third differential runtime column is
// reachable by name through the public scenario API.
func TestFacadeScenarioLiveUDP(t *testing.T) {
	res, err := fairgossip.RunScenario("calm", "live-udp", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if res.Runtime != "live-udp" {
		t.Fatalf("runtime %q, want live-udp", res.Runtime)
	}
	if _, err := fairgossip.RunScenario("calm", "warp", 5); err == nil {
		t.Fatal("unknown runtime accepted")
	}
}

func TestFacadeSimRoundTrip(t *testing.T) {
	c := fairgossip.NewSim(32, fairgossip.SimConfig{
		Mode:       fairgossip.ModeContent,
		Fanout:     5,
		Controller: fairgossip.ControllerSpec{Kind: fairgossip.ControllerAIMD, TargetRatio: 2000},
	}, fairgossip.SimOptions{Seed: 42})
	for _, nd := range c.Nodes {
		nd.Subscribe(fairgossip.MatchAll())
	}
	c.RunRounds(5)
	c.Node(0).Publish("t", nil, []byte("x"))
	c.RunRounds(20)
	if got := c.DeliveredTotal(); got != 32 {
		t.Fatalf("delivered %d of 32", got)
	}
}

func TestFacadeFilterHelpers(t *testing.T) {
	ev := &fairgossip.Event{Topic: "sports.f1"}
	if !fairgossip.TopicFilter("sports.f1").Match(ev) {
		t.Fatal("TopicFilter")
	}
	if !fairgossip.TopicPrefixFilter("sports").Match(ev) {
		t.Fatal("TopicPrefixFilter")
	}
	if !fairgossip.MatchAll().Match(ev) {
		t.Fatal("MatchAll")
	}
	if _, err := fairgossip.ParseFilter(`broken ==`); err == nil {
		t.Fatal("ParseFilter must propagate errors")
	}
	if fairgossip.String("x").Kind() == fairgossip.Num(1).Kind() {
		t.Fatal("value kinds collapsed")
	}
	if !fairgossip.Bool(true).BoolVal() {
		t.Fatal("Bool")
	}
	if fairgossip.DefaultWeights().Audited {
		t.Fatal("DefaultWeights")
	}
}
