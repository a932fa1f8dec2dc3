// Command fairsim runs a single FairGossip simulation and prints its
// fairness report — the quickest way to poke at the system's parameters.
// The scenario subcommand runs a named fault-injection scenario from the
// built-in table (see SCENARIOS.md) with machine-checked invariants.
//
// Examples:
//
//	fairsim -n 256 -mode topics -controller aimd -target 2000 -rounds 300
//	fairsim scenario -list
//	fairsim scenario -name storm -runtime sim,live -seed 7
//	fairsim scenario -name storm -runtime live-udp
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"fairgossip"
	"fairgossip/internal/core"
	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/scenario"
	"fairgossip/internal/simnet"
	"fairgossip/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches to the scenario subcommand or the classic single-run
// mode. It is the testable entry point: exit code plus explicit writers.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "scenario" {
		return runScenario(args[1:], stdout, stderr)
	}
	return runSingle(args, stdout, stderr)
}

// runScenario executes named scenarios from the built-in table.
func runScenario(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fairsim scenario", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("name", "", "built-in scenario to run (see -list)")
		runtime = fs.String("runtime", "sim", "comma-separated columns: sim, live (in-process channels), live-udp (real loopback sockets); or all")
		seed    = fs.Int64("seed", 1, "schedule seed (sim: same seed = identical result)")
		shape   = fs.String("shape", "", "WAN shaping preset applied on top of the scenario: none | wan | lossy-wan | mobile")
		list    = fs.Bool("list", false, "list the built-in scenario table and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *list {
		for _, sc := range fairgossip.ScenarioNames() {
			s, _ := fairgossip.ScenarioByName(sc)
			fmt.Fprintf(stdout, "%-16s %s\n", s.Name, s.Note)
		}
		return 0
	}
	if *name == "" {
		fmt.Fprintln(stderr, "fairsim scenario: -name required (or -list)")
		return 2
	}
	runtimes := scenario.Columns
	if *runtime != "all" {
		runtimes = strings.Split(*runtime, ",")
	}
	for _, rt := range runtimes {
		if !slices.Contains(scenario.Columns, rt) {
			fmt.Fprintf(stderr, "fairsim scenario: unknown column %q (want a comma-separated list of %v, or all)\n", rt, scenario.Columns)
			return 2
		}
	}
	sc, ok := fairgossip.ScenarioByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "fairsim scenario: unknown scenario %q (see -list)\n", *name)
		return 2
	}
	if *shape != "" {
		sp, ok := fairgossip.ShapePreset(*shape)
		if !ok {
			fmt.Fprintf(stderr, "fairsim scenario: unknown shape preset %q (want %v)\n",
				*shape, fairgossip.ShapePresetNames())
			return 2
		}
		// The preset overrides the scenario's own profile; a shaped
		// builtin keeps its loss floors, which were tuned with slack.
		sc.Shape = sp
	}
	code := 0
	for _, rt := range runtimes {
		res, err := fairgossip.RunScenarioSpec(sc, rt, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "fairsim scenario: %v\n", err)
			return 2
		}
		fmt.Fprint(stdout, res.String())
		if !res.Ok() {
			code = 1
		}
	}
	return code
}

// runSingle is the classic parameter-poking mode.
func runSingle(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fairsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n          = fs.Int("n", 256, "number of peers")
		mode       = fs.String("mode", "content", "selectivity mode: content | topics")
		controller = fs.String("controller", "static", "participation: static | aimd | prop")
		target     = fs.Float64("target", 2000, "fairness target f (contribution bytes per benefit unit)")
		fanout     = fs.Int("fanout", 5, "initial/static fanout F")
		batch      = fs.Int("batch", 8, "initial/static gossip message size N (events)")
		topics     = fs.Int("topics", 64, "number of topics (Zipf 1.01 popularity)")
		maxSubs    = fs.Int("maxsubs", 8, "max subscriptions per peer")
		rounds     = fs.Int("rounds", 200, "publishing rounds (1 event/round)")
		payload    = fs.Int("payload", 64, "event payload bytes")
		loss       = fs.Float64("loss", 0, "message loss probability")
		seed       = fs.Int64("seed", 1, "random seed")
		top        = fs.Int("top", 5, "top contributors to list")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *n < 1 || *payload < 0 || *top < 0 {
		fmt.Fprintf(stderr, "fairsim: -n must be at least 1, -payload and -top at least 0 (got %d, %d, %d)\n", *n, *payload, *top)
		return 2
	}

	cfg := core.Config{
		Fanout: *fanout,
		Batch:  *batch,
	}
	switch *mode {
	case "content":
		cfg.Mode = core.ModeContent
	case "topics":
		cfg.Mode = core.ModeTopics
	default:
		fmt.Fprintf(stderr, "fairsim: unknown mode %q\n", *mode)
		return 2
	}
	switch *controller {
	case "static":
		cfg.Controller = core.ControllerSpec{Kind: core.ControllerStatic}
	case "aimd":
		cfg.Controller = core.ControllerSpec{Kind: core.ControllerAIMD, TargetRatio: *target}
	case "prop":
		cfg.Controller = core.ControllerSpec{Kind: core.ControllerProportional, TargetRatio: *target}
	default:
		fmt.Fprintf(stderr, "fairsim: unknown controller %q\n", *controller)
		return 2
	}

	cluster := core.NewCluster(*n, cfg, core.ClusterOptions{
		Seed: *seed,
		NetConfig: simnet.Config{
			Latency: simnet.ConstantLatency(2 * time.Millisecond),
			Loss:    *loss,
		},
	})

	tp := workload.NewTopics(*topics, 1.01)
	rng := rand.New(rand.NewSource(*seed + 99))
	subsOf := make(map[string][]int)
	for i := 0; i < *n; i++ {
		for _, topic := range tp.SampleSet(rng, workload.SubCount(rng, 1, *maxSubs)) {
			cluster.Node(i).Subscribe(pubsub.Topic(topic))
			subsOf[topic] = append(subsOf[topic], i)
		}
	}

	start := time.Now()
	cluster.RunRounds(15)
	for r := 0; r < *rounds; r++ {
		topic := tp.Sample(rng)
		pub := rng.Intn(*n)
		if subs := subsOf[topic]; len(subs) > 0 {
			pub = subs[rng.Intn(len(subs))]
		}
		cluster.Node(pub).Publish(topic, nil, make([]byte, *payload))
		cluster.RunRounds(1)
	}
	cluster.RunRounds(15)
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "fairgossip: n=%d mode=%s controller=%s target=%.0f seed=%d\n",
		*n, *mode, *controller, *target, *seed)
	fmt.Fprintf(stdout, "simulated %d publishing rounds in %.2fs wall (%d events fired)\n\n",
		*rounds, elapsed.Seconds(), cluster.Sim.Steps())
	fmt.Fprintln(stdout, cluster.Report().String())

	tot := cluster.TotalTraffic()
	fmt.Fprintf(stdout, "network              %d msgs, %.2f MB, %d dropped\n",
		tot.MsgsSent, float64(tot.BytesSent)/1e6, tot.Dropped)
	fmt.Fprintf(stdout, "events delivered     %d\n\n", cluster.DeliveredTotal())

	fmt.Fprintf(stdout, "top %d contributors:\n", *top)
	for _, id := range cluster.Ledger.TopContributors(*top) {
		a := cluster.Ledger.Account(id)
		fmt.Fprintf(stdout, "  node %-4d contribution %-12.0f benefit %-8.0f ratio %.1f (F=%d N=%d)\n",
			id,
			fairness.Contribution(a, cluster.Ledger.Weights()),
			fairness.Benefit(a),
			fairness.Ratio(a, cluster.Ledger.Weights()),
			cluster.Node(id).Fanout(), cluster.Node(id).Batch())
	}
	return 0
}
