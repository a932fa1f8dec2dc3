// Churnstorm: the paper's motivating feedback loop (§1/§6) made visible.
// A minority of peers receives little benefit; under classic gossip they
// do as much work as everyone else, perceive unfairness, and rage-quit —
// degrading reliability for all. The adaptive protocol defuses the loop.
//
// The phase loop judges fairness with workload.RageQuit, the same
// policy EXP-T5 and the rage-quit scenario use.
//
// Run with: go run ./examples/churnstorm
package main

import (
	"fmt"
	"math/rand"
	"time"

	"fairgossip"
	"fairgossip/internal/fairness"
	"fairgossip/internal/simnet"
	"fairgossip/internal/workload"
)

const (
	peers         = 96
	phases        = 16
	repairPenalty = 200 // §3.2 instability charge per rejoin
)

func main() {
	fmt.Printf("churnstorm: %d peers, 25%% light-interest minority, rage-quit at 2.5x median ratio\n\n", peers)
	for _, variant := range []struct {
		name string
		spec fairgossip.ControllerSpec
	}{
		{"classic static gossip", fairgossip.ControllerSpec{Kind: fairgossip.ControllerStatic}},
		{"FairGossip adaptive", fairgossip.ControllerSpec{Kind: fairgossip.ControllerAIMD, TargetRatio: 2500}},
	} {
		quits, downtime := run(variant.spec)
		fmt.Printf("=== %s ===\n", variant.name)
		fmt.Printf("  rage-quits:            %d\n", quits)
		fmt.Printf("  light-node downtime:   %.1f%%\n\n", downtime)
	}
}

func run(spec fairgossip.ControllerSpec) (quits int, downtimePct float64) {
	cluster := fairgossip.NewSim(peers, fairgossip.SimConfig{
		Mode:       fairgossip.ModeContent,
		Fanout:     5,
		Batch:      8,
		Controller: spec,
	}, fairgossip.SimOptions{
		Seed:      11,
		NetConfig: simnet.Config{Latency: simnet.ConstantLatency(2 * time.Millisecond)},
	})

	stocks := workload.NewStocks(16)
	var light []int
	for i := 0; i < peers; i++ {
		if i%4 == 0 {
			cluster.Node(i).Subscribe(stocks.FilterWithSelectivity(0.05))
			light = append(light, i)
		} else {
			cluster.Node(i).Subscribe(stocks.FilterWithSelectivity(0.5))
		}
	}

	cluster.RunRounds(5)
	rng := rand.New(rand.NewSource(11))
	lightDownChecks := 0
	prev := cluster.Ledger.Snapshot()

	rq := workload.NewRageQuit(2.5, 2, 3)
	for phase := 0; phase < phases; phase++ {
		for r := 0; r < 10; r++ {
			cluster.Node(rng.Intn(peers)).Publish("ticks", stocks.Event(rng), nil)
			cluster.RunRounds(1)
		}
		for _, id := range light {
			if !cluster.Node(id).Active() {
				lightDownChecks++
			}
		}
		for _, id := range rq.Rejoins(phase) {
			cluster.Rejoin(id)
			cluster.Ledger.AddChurnPenalty(id, repairPenalty)
		}
		cur := cluster.Ledger.Snapshot()
		ratios := make([]float64, peers)
		for i := range ratios {
			ratios[i] = fairness.Ratio(fairness.Delta(cur[i], prev[i]), cluster.Ledger.Weights())
		}
		prev = cur
		if phase < 3 {
			continue // warm-up before anyone judges fairness
		}
		quit, med := rq.Check(phase, ratios, func(i int) bool { return cluster.Node(i).Active() })
		for _, id := range quit {
			fmt.Printf("  phase %2d: peer %2d rage-quits (window ratio %.0f vs median %.0f)\n",
				phase, id, ratios[id], med)
			cluster.Crash(id)
		}
		quits += len(quit)
	}
	return quits, 100 * float64(lightDownChecks) / float64(len(light)*phases)
}
