package main

// The metric tables are the benchmark's contract with BENCHMARK.json:
// bench_test.go fails when the two disagree on a name, unit or
// direction. Every workload reports every metric; a per-layer metric of
// a layer the workload never enters reads 0.
//
// The two host-timed cost figures, proc.cpu_us_per_delivery and
// proc.deliveries_per_s, are per-layer metrics and not end-to-end ones
// because on the shared reference box their run-to-run spread reaches
// 0.2–0.4 of the median (README, "Bounds"), more than any bound the
// contract allows could absorb. Every run prints them, traced or not.

type metricDef struct {
	name, unit, better string
}

// layers are the repository's packages the per-layer metrics attribute
// work to ("proc" is the Go runtime underneath them all).
var layers = []string{"eventsim", "simnet", "core", "fairness", "gossip", "membership", "pubsub", "adaptive", "wire", "transport", "live"}

var e2eDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"allocs_per_delivery", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"deliver_ms_p50", "ms", "lower"},
	{"deliver_ms_p99", "ms", "lower"},
	{"wire_bytes_per_delivery", "B", "lower"},
	{"ratio_jain", "index", "higher"},
}

var layerDefs = []metricDef{
	{"eventsim.events_per_round", "count", "lower"},
	{"eventsim.pending_depth", "count", "lower"},
	{"eventsim.sched_step_ns", "ns", "lower"},
	{"eventsim.est_cpu_frac", "frac", "lower"},
	{"simnet.msgs_per_round", "count", "lower"},
	{"simnet.dropped_frac", "frac", "lower"},
	{"simnet.send_deliver_ns", "ns", "lower"},
	{"simnet.est_cpu_frac", "frac", "lower"},
	{"core.sim_rounds_per_s", "1/s", "higher"},
	{"core.round_ms_p50", "ms", "lower"},
	{"core.round_ms_max", "ms", "lower"},
	{"core.publish_us", "us", "lower"},
	{"core.new_cluster_s", "s", "lower"},
	{"core.subscribe_s", "s", "lower"},
	{"core.parallel_eff", "frac", "higher"},
	{"core.residual_cpu_frac", "frac", "lower"},
	{"fairness.add_ns", "ns", "lower"},
	{"fairness.report_ms", "ms", "lower"},
	{"fairness.est_cpu_frac", "frac", "lower"},
	{"gossip.select_ns", "ns", "lower"},
	{"gossip.insert_tick_ns", "ns", "lower"},
	{"gossip.seen_add_ns", "ns", "lower"},
	{"gossip.useful_byte_frac", "frac", "higher"},
	{"gossip.sends_per_delivery", "count", "lower"},
	{"gossip.est_cpu_frac", "frac", "lower"},
	{"membership.shuffle_ns", "ns", "lower"},
	{"membership.sample_ns", "ns", "lower"},
	{"membership.infra_byte_frac", "frac", "lower"},
	{"membership.view_fill", "frac", "higher"},
	{"membership.est_cpu_frac", "frac", "lower"},
	{"pubsub.match_ns", "ns", "lower"},
	{"pubsub.event_wire_bytes", "B", "lower"},
	{"adaptive.update_ns", "ns", "lower"},
	{"adaptive.fanout_mean", "count", "lower"},
	{"adaptive.batch_mean", "count", "lower"},
	{"wire.encode_ns", "ns", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"wire.decode_allocs", "count", "lower"},
	{"wire.envelope_bytes_mean", "B", "lower"},
	{"wire.events_per_envelope", "count", "higher"},
	{"wire.est_cpu_frac", "frac", "lower"},
	{"transport.send_ns", "ns", "lower"},
	{"transport.shape_send_ns", "ns", "lower"},
	{"transport.sent_per_s", "1/s", "lower"},
	{"transport.drop_frac_fault", "frac", "lower"},
	{"transport.drop_frac_inbox", "frac", "lower"},
	{"transport.drop_frac_transport", "frac", "lower"},
	{"transport.drop_frac_shaper", "frac", "lower"},
	{"transport.conservation_gap", "count", "lower"},
	{"transport.est_cpu_frac", "frac", "lower"},
	{"live.publish_wait_us_p50", "us", "lower"},
	{"live.publish_wait_us_p99", "us", "lower"},
	{"live.generator_lag_ms_max", "ms", "lower"},
	{"live.cpu_util", "cores", "lower"},
	{"live.envelopes_per_round", "count", "lower"},
	{"live.stop_ms", "ms", "lower"},
	{"live.residual_cpu_frac", "frac", "lower"},
	{"proc.cpu_us_per_delivery", "us", "lower"},
	{"proc.deliveries_per_s", "1/s", "higher"},
	{"proc.gc_cpu_frac", "frac", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.heap_live_mb", "MB", "lower"},
	{"proc.sched_latency_us_p99", "us", "lower"},
	{"proc.goroutines", "count", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}
