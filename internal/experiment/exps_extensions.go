package experiment

import (
	"fmt"
	"time"

	"fairgossip/internal/core"
	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

// ExpX1 — extension: push-pull anti-entropy. The paper grounds gossip's
// reliability in the epidemic literature (§4.2 cites Demers et al.);
// pure push with tight fanout/TTL leaves an uninfected tail that digest
// exchange repairs. This quantifies the repair and its digest cost.
func ExpX1(opts Options) []Table {
	n := pick(opts.Small, 192, 384)
	seeds := []int64{opts.Seed, opts.Seed + 1, opts.Seed + 2}
	t := Table{
		ID:    "EXP-X1",
		Title: "Pure push vs push-pull anti-entropy (fanout 1, TTL 2)",
		Note:  "push leaves a stochastic uninfected tail; digest/pull repair closes it for modest extra traffic",
		Cols:  []string{"variant", "coverage", "total_kbytes"},
	}
	for _, v := range []struct {
		name      string
		antiEvery int
	}{{"push-only", 0}, {"push-pull/4", 4}, {"push-pull/2", 2}} {
		var cov, kb float64
		for _, seed := range seeds {
			c, b := runPushPull(seed, n, v.antiEvery)
			cov += c
			kb += b
		}
		t.AddRow(v.name, cov/float64(len(seeds)), kb/float64(len(seeds)))
	}
	return []Table{t}
}

// runPushPull measures the classic configuration's coverage and its
// whole traffic in kB — push, digests and pulls — after 30 rounds.
func runPushPull(seed int64, n, antiEvery int) (float64, float64) {
	c := classicCluster(seed, n, core.Config{Fanout: 1, BufferMaxAge: 2, AntiEntropy: antiEvery}, 0)
	c.RunRounds(30)
	return coverage(c), float64(c.TotalTraffic().BytesSent) / 1e3
}

// ExpX2 — extension: semantic partner bias (§5.2's closing suggestion:
// "rely on semantic knowledge to bias the participation"). Interest
// camps of varying sparsity; bias routes events toward interested peers,
// which behaves like implicit topic grouping.
func ExpX2(opts Options) []Table {
	n := pick(opts.Small, 128, 256)
	rounds := pick(opts.Small, 120, 240)
	t := Table{
		ID:    "EXP-X2",
		Title: "Semantic bias vs interest sparsity (fanout 2, TTL 2)",
		Note:  "sparse interest: biased routing ~matches delivery at a fraction of the traffic (implicit grouping); dense interest: no benefit",
		Cols:  []string{"camps", "variant", "delivery_ratio", "app_mbytes", "deliveries_per_mbyte"},
	}
	for _, camps := range []int{2, 4, 8, 16} {
		for _, v := range []struct {
			name string
			bias float64
		}{{"uniform", 0}, {"biased-0.75", 0.75}} {
			del, appBytes := runSemantic(opts.Seed, n, camps, rounds, v.bias)
			maxDel := float64(rounds * n / camps)
			t.AddRow(camps, v.name, float64(del)/maxDel,
				float64(appBytes)/1e6, float64(del)/(float64(appBytes)/1e6))
		}
	}
	return []Table{t}
}

func runSemantic(seed int64, n, camps, rounds int, bias float64) (delivered, appBytes uint64) {
	c := core.NewCluster(n, core.Config{
		Mode:         core.ModeContent,
		Fanout:       2,
		Batch:        4,
		BufferMaxAge: 2,
		SemanticBias: bias,
	}, core.ClusterOptions{
		Seed:      seed,
		NetConfig: simnet.Config{Latency: simnet.ConstantLatency(2 * time.Millisecond)},
	})
	topicOf := func(k int) string { return fmt.Sprintf("camp-%02d", k%camps) }
	for i, nd := range c.Nodes {
		nd.Subscribe(pubsub.Topic(topicOf(i)))
	}
	c.RunRounds(15)
	for r := 0; r < rounds; r++ {
		c.Node(r%n).Publish(topicOf(r), nil, make([]byte, 48))
		c.RunRounds(1)
	}
	c.RunRounds(10)
	for i := 0; i < n; i++ {
		a := c.Ledger.Account(i)
		delivered += a.Delivered
		appBytes += a.BytesSent[fairness.ClassApp]
	}
	return delivered, appBytes
}
