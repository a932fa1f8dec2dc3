package experiment

import (
	"fmt"
	"time"

	"fairgossip/internal/core"
	"fairgossip/internal/pubsub"
)

// HugeOptions parameterises the -huge bench tier: one content-mode
// cluster at population HugeN, swept across shard counts to measure how
// rounds/sec scales with cores.
type HugeOptions struct {
	Seed   int64
	N      int   // population; default 100000
	Shards []int // shard counts to sweep; default {1, 2, 4, 8}
	Rounds int   // gossip rounds per run; default 12
}

func (o HugeOptions) withDefaults() HugeOptions {
	if o.N <= 0 {
		o.N = 100000
	}
	if len(o.Shards) == 0 {
		o.Shards = []int{1, 2, 4, 8}
	}
	if o.Rounds <= 0 {
		o.Rounds = 12
	}
	return o
}

// hugeConfig is the scale-tuned cluster configuration: batched rounds
// (one kernel timer per shard instead of one per node), the idealised
// full sampler (Cyclon bootstrap alone is O(n·view) kernel events), and
// small per-node buffer/dedup capacities so 100k nodes fit in memory.
func hugeConfig() core.Config {
	return core.Config{
		Mode:        core.ModeContent,
		Membership:  core.MemberFull,
		Fanout:      3,
		Batch:       8,
		BufferCap:   32,
		SeenCap:     64,
		BatchRounds: true,
	}
}

// RunHuge runs the -huge tier and returns one table, a row per shard
// count: the protocol columns (msgs_sent, delivered) are deterministic
// per (seed, shardCount); wall_s and rounds_per_sec are wall-clock.
func RunHuge(o HugeOptions) []Table {
	o = o.withDefaults()
	t := Table{
		ID:    "huge_scaling",
		Title: fmt.Sprintf("sharded kernel scaling, N=%d, %d rounds", o.N, o.Rounds),
		Note: "msgs_sent/delivered are deterministic per (seed, shards); " +
			"wall_s and rounds_per_sec are wall-clock and vary run to run",
		Cols: []string{"shards", "n", "rounds", "msgs_sent", "delivered", "wall_s", "rounds_per_sec"},
	}
	for _, shards := range o.Shards {
		wall, sent, delivered := runHugeOnce(o, shards)
		t.AddRow(fmt.Sprintf("shards=%d", shards),
			float64(o.N), float64(o.Rounds), float64(sent), float64(delivered),
			wall.Seconds(), float64(o.Rounds)/wall.Seconds())
	}
	return []Table{t}
}

// runHugeOnce builds the cluster (untimed), then times the gossip-round
// loop only — the number the scaling claim is about.
func runHugeOnce(o HugeOptions, shards int) (wall time.Duration, sent, delivered uint64) {
	sc := core.NewShardedCluster(o.N, shards, hugeConfig(), core.ClusterOptions{Seed: o.Seed})
	for _, nd := range sc.Nodes {
		nd.Subscribe(pubsub.MatchAll())
	}
	const publishers = 8
	stride := o.N / publishers
	start := time.Now() //fair:wallclock EXP-HUGE's product is wall-clock rounds/sec; the timing never feeds back into the (seed, shards)-exact counters
	for r := 0; r < o.Rounds; r++ {
		for p := 0; p < publishers; p++ {
			sc.Node((r+p*stride)%o.N).Publish("feed", nil, []byte("payload-hugetier"))
		}
		sc.RunRounds(1)
	}
	sc.Stop()
	sc.Drain()
	wall = time.Since(start) //fair:wallclock closes the timing above; msgs_sent/delivered stay exact per (seed, shards)
	tot := sc.TotalTraffic()
	return wall, tot.MsgsSent, sc.DeliveredTotal()
}
