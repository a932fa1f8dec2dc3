# Developer entry points; CI runs `make ci`.

GO      ?= go
PKGS    := ./...
# End-to-end experiment benchmarks live in the repo root; per-package
# micro-benchmarks (eventsim, simnet, fairness, gossip) ride along.
BENCH   ?= .
OUT     ?= results

.PHONY: all build test race soak bench bench-smoke microbench vet cross fmt-check determinism staticcheck lint ci fairbench loc footprint redundancy latency allocs conservation timers clean

# staticcheck is version-pinned: a drifting linter turns every upgrade
# into a triage session. Bump deliberately, re-triage, update
# staticcheck.conf (see LINTING.md).
STATICCHECK_VERSION := 2025.1.1

all: build

build:
	$(GO) build $(PKGS)

# -shuffle=on randomises test (and subtest-sibling) execution order on
# every run, so order-dependent tests cannot hide behind file order.
test:
	$(GO) test -shuffle=on $(PKGS)

# The scenario package's race run includes the full builtin table over
# real loopback UDP sockets (TestBuiltinsOnLiveUDP) — the transport /
# codec concurrency is exercised under the detector on every CI run.
# core rides along since the sharded kernel runs its shards on separate
# goroutines between round barriers (ledger chunks, mailboxes, the
# envelope pool freelist are all crossed by those goroutines) and builds
# them on those goroutines too (each shard's network, node slab and range
# of the node table): core's TestSharded* and scenario's
# TestShardedSimCalmStorm are the tests that put more than one shard
# under the detector. The root package rides along for
# TestFacadeScenarioLiveUDP, which builds its column through
# fairgossip.RunScenarioSpec and scenario.NewRuntime. internal/clock's
# entries are scheduled from every peer goroutine and run from the
# clock's goroutine or any shaped sender's, one at a time.
race:
	$(GO) test -race -shuffle=on . ./internal/core/ ./internal/protocol/ ./internal/fairness/ ./internal/gossip/ ./internal/live/ ./internal/eventsim/ ./internal/simnet/ ./internal/scenario/ ./internal/transport/ ./internal/wire/ ./internal/membership/ ./internal/clock/

# soak is the recipe that reproduced the live sub-churn flake (ROADMAP
# item 5): the three packages that run real goroutines and sockets,
# uncached and under the race detector, five times in a row. go test
# runs the packages concurrently, and on a small box that contention
# *is* the load — wake-ups arrive late, inboxes back up, commands and
# envelopes interleave in orders a quiet run never sees. The passes
# alternate two cores and one (-cpu sets the test binaries' GOMAXPROCS,
# not go test's package parallelism): on one core every wake-up waits
# for the goroutine ahead of it. The budget is zero failures: one red
# pass fails the target.
soak:
	@for pass in 1 2 3 4 5; do \
		procs=$$((2 - (pass + 1) % 2)); \
		echo "soak pass $$pass/5 (GOMAXPROCS=$$procs)"; \
		$(GO) test -count=1 -race -cpu $$procs ./internal/live ./internal/scenario ./internal/transport || exit 1; \
	done

# bench runs the Go benchmarks (one per experiment). Performance
# measurement proper is bench/ — see bench/README.md.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime 3x .

# bench/ (the BENCHMARK.json harness) is a module of its own, so the
# root ./... never compiles it: this is the only target that notices a
# root-module change breaking it.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test ./...

microbench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/eventsim/ ./internal/simnet/ ./internal/fairness/ ./internal/gossip/

vet:
	$(GO) vet $(PKGS)

# cross keeps the other platforms compiling: internal/clock's time.Timer
# wake source is the only one a non-Linux build has (clock_other.go, the
# tree's one platform fork), and only a non-Linux build compiles that
# file.
cross:
	GOOS=darwin $(GO) vet $(PKGS)
	GOOS=windows $(GO) build $(PKGS)

fmt-check:
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

# determinism is the project's own check: internal/analysis's
# TestTreeIsDeterministic runs the determinism rule over every package
# (no finding allowed, no escape hatch), beside the rule's fixture test.
# go test ./... runs the same tests; this target is the lint gate.
determinism:
	$(GO) test ./internal/analysis -count=1

# staticcheck runs only when the pinned binary is available (the tool
# is an external module; offline or hermetic builds skip it with a
# notice rather than failing). Config lives in staticcheck.conf.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		ver=$$(staticcheck -version 2>/dev/null || true); \
		case "$$ver" in \
		*$(STATICCHECK_VERSION)*) ;; \
		*) echo "staticcheck: $$ver (pinned: $(STATICCHECK_VERSION)) — results may drift";; \
		esac; \
		staticcheck $(PKGS); \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) not installed; skipping (see LINTING.md)"; \
	fi

lint: fmt-check vet cross determinism staticcheck

ci: lint build test race bench-smoke

# Regenerate every experiment table + CSVs.
fairbench:
	$(GO) run ./cmd/fairbench -small -out $(OUT)

# loc prints the numbers ROADMAP items 6 and 8 are judged by, measured
# the same way every PR: non-test Go lines outside bench/ and those of
# the scenario harness (and of its column adapters), the
# simulated-cluster engine and its network, the event kernel, the live runtime's timing
# (its one timed queue and the shaper on it),
# the two drivers of protocol.Peer, and the options census (LINTING.md) from the test that
# pins it.
loc:
	@printf 'non-test Go lines outside bench/: '; find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l
	@printf 'scenario harness (internal/scenario): '; find internal/scenario -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'column adapters (scenario/runtime.go): '; wc -l < internal/scenario/runtime.go
	@printf 'sim engine (core/cluster.go + core/shard.go): '; cat internal/core/cluster.go internal/core/shard.go | wc -l
	@printf 'sim network (internal/simnet): '; find internal/simnet -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'event kernel (internal/eventsim): '; find internal/eventsim -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'live timing (internal/clock + transport/shape.go): '; cat $$(find internal/clock -name '*.go' ! -name '*_test.go') internal/transport/shape.go | wc -l
	@printf 'drivers (core/node.go, live/live.go): %s, %s\n' $$(wc -l < internal/core/node.go) $$(wc -l < internal/live/live.go)
	@printf 'options (fields of the six config structs): '; $(GO) test ./internal/scenario -run TestOptionsCensus -count=1 -v | sed -n 's/.*options census: //p'

# footprint prints what one simulated node costs on the live heap, the
# garbage its warm-up makes (what sets sim-huge's peak RSS), and the
# allocations and garbage building it costs, from the tests that hold
# each to its budget (sim-huge's configuration at N = 20 000; see
# PERFORMANCE.md "Per-node footprint" and "The sharded kernel").
footprint:
	@out=$$($(GO) test ./internal/core -run 'TestNodeFootprintBudget|TestWarmupGarbageBudget|TestConstructionBudget' -count=1 -v); status=$$?; \
		echo "$$out" | grep -E 'bytes|^(FAIL|ok)'; exit $$status

# redundancy prints what a delivery costs on the wire and how much of
# what peers receive is news, from the test that holds both to their
# budgets and checks that no delivery is lost (the sim-fair configuration
# at N = 200; see PERFORMANCE.md "Redundancy budget"), the same with 1 KB
# events and static levers (TestBigEventSpreadBudget; "The lazy tier"),
# per message kind,
# that the simulator charged each message the length internal/wire
# encodes it to (TestChargedIsEncoded; PERFORMANCE.md "One byte model"),
# and what a delivery costs 16 live peers whose 1 KB events go lazy and
# are pulled back under 30 % loss (TestLazyPushRepairsLoss).
redundancy:
	@out=$$($(GO) test ./internal/core ./internal/live -run 'TestRedundancyBudget|TestBigEventSpreadBudget|TestChargedIsEncoded|TestLazyPushRepairsLoss' -count=1 -v); status=$$?; \
		echo "$$out" | grep -E 'redundancy|big events|never delivered|charged = encoded|^(FAIL|ok)'; exit $$status

# latency prints publish → deliver p50 and p99 in simulated time on the
# sim-fair configuration at N = 200, from the test that holds both to
# their budgets (TestDeliveryLatencyBudget; see PERFORMANCE.md "The first
# H hops"), and the same with 1 KB events and static levers
# (TestBigEventSpreadBudget; "The lazy tier").
latency:
	@out=$$($(GO) test ./internal/core -run 'TestDeliveryLatencyBudget|TestBigEventSpreadBudget' -count=1 -v); status=$$?; \
		echo "$$out" | grep -E 'latency:|big events:|^(FAIL|ok)'; exit $$status

# allocs prints the allocation pins of the paths that run every round:
# the simulation kernel's closure, message and ticker events and a
# simulated message's Send → delivery (a closure rides in the kernel
# record's interface payload), a steady sim-fair round, a Cyclon
# exchange, a live round with and without a shuffle and one that sends
# lazy ids, a live receive that pulls, one that serves a pull, one that
# relays a new event at once, one that relays a third hop and one that
# floods a new big event, a publish that pushes, decoding
# 64 novel events through a warm decoder's slabs, a datagram's Send →
# handler → Release on each substrate, and scheduling and running a live
# round's clock entry (see PERFORMANCE.md "Allocation regression tests").
allocs:
	@out=$$($(GO) test -count=1 -v -run 'TestAfterStepZeroAlloc|TestScheduleMsgStepZeroAlloc|TestTickerSteadyStateZeroAlloc|TestSendDeliverZeroAlloc|TestSimFairRoundAllocs|TestShuffleExchangeZeroAlloc|TestLiveRoundPathAllocs|TestRecordDecodeAllocBudget|TestDatagramPathZeroAlloc|TestSteadyRearmZeroAlloc' ./internal/eventsim ./internal/simnet ./internal/core ./internal/membership ./internal/live ./internal/wire ./internal/transport ./internal/clock); status=$$?; \
		echo "$$out" | grep -E 'allocs:|^(FAIL|ok)'; exit $$status

# conservation prints sent = recv + dropped at each of the live runtime's
# three transport send sites (every cluster sends through the shaper),
# over a substrate that refuses every fifth send, and once more with lazy
# pushes and pulls among the refused sends
# (TestRefusedSendsConserved), and runs the two tests that own the
# rest of drop conservation: a full inbox (TestLiveInboxOverflowCounted)
# and the shaper under loss and delay (TestShapeConservation). These
# tests, not a lint rule, hold sent == recv + dropped (LINTING.md "The
# dropacct trial").
conservation:
	@out=$$($(GO) test -count=1 -v -run 'TestRefusedSendsConserved|TestLiveInboxOverflowCounted|TestShapeConservation' ./internal/live ./internal/transport); status=$$?; \
		echo "$$out" | grep -E '_test\.go:[0-9]+:|^--- FAIL|^(FAIL|ok)'; exit $$status

# timers prints how late the live runtime's wake-ups land: a shaped
# envelope against its hold, held through fractional milliseconds from an
# idle shaper (TestHeldEnvelopesLandOnTime, which holds the median to
# internal/clock's Quantum + 100 µs), and 48 round ticks on 10 ms grids,
# on the timerfd and on the time.Timer fallback (TestAlarmsNeverFireEarly).
# Both tests fail on a wake before its deadline (see PERFORMANCE.md
# "Timers that fire when due"); TestEqualDueRunsInScheduleOrder rides
# along, the clock's (due, seq) order that keeps a jitter-free shaped
# link FIFO.
timers:
	@out=$$($(GO) test -count=1 -v -run 'TestHeldEnvelopesLandOnTime|TestAlarmsNeverFireEarly|TestEqualDueRunsInScheduleOrder' ./internal/transport ./internal/clock); status=$$?; \
		echo "$$out" | grep -E 'lateness|^(FAIL|ok)'; exit $$status

clean:
	rm -rf $(OUT)
