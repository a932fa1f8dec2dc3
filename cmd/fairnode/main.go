// Command fairnode runs live FairGossip peers as networked nodes: real
// loopback datagram sockets, one per peer, with the binary wire codec
// on every link — the deployed form of the system, as opposed to
// fairsim's simulations.
//
// Subcommands:
//
//	fairnode demo   run a small multi-socket cluster end to end: bind
//	                sockets, subscribe a Zipf-ish interest set, publish
//	                a paced workload, wait for full delivery, and print
//	                the per-peer addresses, transport traffic, and the
//	                fairness report.
//
// Examples:
//
//	fairnode demo
//	fairnode demo -n 12 -events 48 -transport udp -target 2500
//	fairnode demo -n 8 -join 4       # four peers join the running cluster
//	fairnode demo -n 10 -leave 2     # two peers depart gracefully mid-run
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"fairgossip"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches subcommands. It is the testable entry point: exit code
// plus explicit writers.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "demo":
			return runDemo(args[1:], stdout, stderr)
		case "-h", "--help", "help":
			fmt.Fprintln(stdout, "usage: fairnode demo [flags]   (fairnode demo -h for flags)")
			return 0
		}
	}
	fmt.Fprintln(stderr, "usage: fairnode demo [flags]")
	return 2
}

func runDemo(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fairnode demo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n         = fs.Int("n", 8, "number of founding peers (one socket each)")
		join      = fs.Int("join", 0, "extra peers that join the running cluster before publishing")
		leave     = fs.Int("leave", 0, "founders that depart gracefully once the cluster runs (they subscribe to nothing)")
		events    = fs.Int("events", 24, "events to publish")
		payload   = fs.Int("payload", 64, "event payload bytes")
		topics    = fs.Int("topics", 4, "topic count")
		period    = fs.Duration("period", 5*time.Millisecond, "gossip round period")
		target    = fs.Float64("target", 0, "fairness target f (>0 enables the AIMD controller)")
		transport = fs.String("transport", "udp", "transport: udp (real loopback sockets) | chan (in-process)")
		seed      = fs.Int64("seed", 1, "workload seed")
		timeout   = fs.Duration("timeout", 30*time.Second, "delivery wait bound")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Refuse what the demo cannot run before NewLive binds a socket.
	switch {
	case *leave < 0 || *leave >= *n:
		fmt.Fprintf(stderr, "fairnode demo: -leave %d out of range [0,%d)\n", *leave, *n)
		return 2
	case *period <= 0:
		fmt.Fprintf(stderr, "fairnode demo: -period %v, want a positive round period\n", *period)
		return 2
	case *topics < 1:
		fmt.Fprintf(stderr, "fairnode demo: -topics %d, want at least 1\n", *topics)
		return 2
	case *payload < 0:
		fmt.Fprintf(stderr, "fairnode demo: -payload %d, want at least 0\n", *payload)
		return 2
	}

	cfg := fairgossip.LiveConfig{
		N:           *n,
		RoundPeriod: *period,
		TargetRatio: *target,
		Seed:        *seed,
	}
	switch *transport {
	case "udp":
		cfg.Transport = fairgossip.TransportUDP()
	case "chan":
		cfg.Transport = fairgossip.TransportChan()
	default:
		fmt.Fprintf(stderr, "fairnode demo: unknown transport %q (want udp or chan)\n", *transport)
		return 2
	}
	cluster, err := fairgossip.NewLive(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "fairnode demo: %v\n", err)
		return 1
	}
	defer cluster.Stop()

	// Interest: peer i watches topic i mod T, so every topic has a known
	// subscriber set and expected delivery counts are exact. The last
	// -leave founders subscribe to nothing: they will depart gracefully
	// mid-run, so they must owe no deliveries.
	staying := *n - *leave
	subsOf := make(map[string]int, *topics)
	for i := 0; i < staying; i++ {
		topic := fmt.Sprintf("t%d", i%*topics)
		if _, ok := cluster.Subscribe(i, fairgossip.TopicFilter(topic)); !ok {
			fmt.Fprintln(stderr, "fairnode demo: subscribe failed")
			return 1
		}
		subsOf[topic]++
		fmt.Fprintf(stdout, "node %2d  %-22s watches %s\n", i, cluster.Addr(i), topic)
	}

	for i := staying; i < *n; i++ {
		fmt.Fprintf(stdout, "node %2d  %-22s will depart gracefully\n", i, cluster.Addr(i))
	}

	cluster.Start()
	rng := rand.New(rand.NewSource(*seed))

	// Graceful departures: each leaver hands its freshest view entries
	// to its neighbours in KindLeave envelopes before going silent, so
	// the survivors scrub its address without probe timeouts. A short
	// pause first lets the overlay mix so there are views to hand over.
	if *leave > 0 {
		cluster.RunRounds(6)
		for i := staying; i < *n; i++ {
			if !cluster.Leave(i) {
				fmt.Fprintf(stderr, "fairnode demo: leave of node %d failed\n", i)
				return 1
			}
			fmt.Fprintf(stdout, "node %2d  departed gracefully\n", i)
		}
	}

	// Late joiners: boot mid-run through round-robin seeds (each join is
	// a real membership handshake over the transport), subscribe, and
	// count toward expected deliveries like everyone else. A short pause
	// lets their addresses spread through view shuffles before events
	// start flowing.
	total := *n
	for k := 0; k < *join; k++ {
		id, err := cluster.Join(k % staying) // seeds must still be up: departed founders answer nothing
		if err != nil {
			fmt.Fprintf(stderr, "fairnode demo: join: %v\n", err)
			return 1
		}
		topic := fmt.Sprintf("t%d", id%*topics)
		if _, ok := cluster.Subscribe(id, fairgossip.TopicFilter(topic)); !ok {
			fmt.Fprintln(stderr, "fairnode demo: subscribe on joiner failed")
			return 1
		}
		subsOf[topic]++
		total++
		fmt.Fprintf(stdout, "node %2d  %-22s joins, watches %s\n", id, cluster.Addr(id), topic)
	}
	if *join > 0 {
		cluster.RunRounds(8)
	}

	expected := uint64(0)
	for k := 0; k < *events; k++ {
		topic := fmt.Sprintf("t%d", rng.Intn(*topics))
		pub := rng.Intn(staying) // departed peers cannot publish
		if !cluster.Publish(pub, topic, nil, make([]byte, *payload)) {
			fmt.Fprintln(stderr, "fairnode demo: publish failed")
			return 1
		}
		expected += uint64(subsOf[topic])
		cluster.RunRounds(1) // paced: stay inside batch x buffer-TTL spread capacity
	}

	delivered := func() uint64 {
		var d uint64
		for i := 0; i < total; i++ {
			d += cluster.Ledger().Account(i).Delivered
		}
		return d
	}
	deadline := time.Now().Add(*timeout)
	for delivered() < expected && time.Now().Before(deadline) {
		cluster.RunRounds(1)
	}
	cluster.Stop() // settle the transport so the traffic counters are final

	got := delivered()
	fmt.Fprintf(stdout, "\ndelivered %d of %d interested (peer,event) pairs\n", got, expected)
	tr := cluster.Traffic()
	fmt.Fprintf(stdout, "transport traffic: %d envelopes sent, %d received, %d dropped (%d inbox, %d fault, %d refused)\n",
		tr.Sent, tr.Recv, tr.Dropped, tr.InboxDrops, tr.FaultDrops, tr.TransportDrops)
	fmt.Fprintln(stdout, "\nfairness report:")
	fmt.Fprintln(stdout, cluster.Report().String())
	if got < expected {
		fmt.Fprintf(stderr, "fairnode demo: timed out with %d of %d deliveries\n", got, expected)
		return 1
	}
	return 0
}
