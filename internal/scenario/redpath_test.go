package scenario

import (
	"strings"
	"testing"

	"fairgossip/internal/pubsub"
)

// mutant is a sim column with one thing broken, named by the mutation;
// every other method is the real SimRuntime's.
type mutant struct {
	*SimRuntime
	mutation string
}

// victim is the peer the mutations single out.
const victim = 3

// Start cuts the victim off behind the engine's back: the model still
// demands that it deliver, and that everyone deliver what it publishes.
func (m *mutant) Start() {
	m.SimRuntime.Start()
	if m.mutation == "silent-partition" {
		m.Partition([]int{victim})
	}
}

// OnDeliver calls the victim's observer twice per delivery.
func (m *mutant) OnDeliver(id int, fn func(*pubsub.Event)) bool {
	if m.mutation == "double-observer" && id == victim {
		return m.SimRuntime.OnDeliver(id, func(ev *pubsub.Event) { fn(ev); fn(ev) })
	}
	return m.SimRuntime.OnDeliver(id, fn)
}

// Traffic hides one drop.
func (m *mutant) Traffic() (sent, recv, dropped uint64) {
	sent, recv, dropped = m.SimRuntime.Traffic()
	if m.mutation == "hide-drop" && dropped > 0 {
		dropped--
	}
	return sent, recv, dropped
}

// Views keeps the first down peer in the first live peer's view.
func (m *mutant) Views() [][]int {
	views := m.SimRuntime.Views()
	if m.mutation != "dead-in-view" {
		return views
	}
	for dead := range views {
		if m.Up(dead) {
			continue
		}
		for live := range views {
			if m.Up(live) {
				views[live] = append(views[live], dead)
				return views
			}
		}
	}
	return views
}

// Settle, which runs inside the late fairness window, charges the victim
// a contribution no delivery balances.
func (m *mutant) Settle(rounds int) {
	if m.mutation == "skew-late" {
		m.Ledger().AddChurnPenalty(victim, 1e9)
	}
	m.SimRuntime.Settle(rounds)
}

// TestEveryInvariantSeenRed: each invariant turns red on the sim column
// when the runtime breaks the one thing it guards, the way
// TestFalseDeliveryDetected sees no-false-delivery fail. The builtins
// these rows run are green unbroken at every seed (TestBuiltinsOnSim).
func TestEveryInvariantSeenRed(t *testing.T) {
	falseDelivery := func(s *SimRuntime) Runtime { return newFalseDeliverer(s) }
	mutate := func(mutation string) func(*SimRuntime) Runtime {
		return func(s *SimRuntime) Runtime { return &mutant{SimRuntime: s, mutation: mutation} }
	}
	for _, row := range []struct {
		invariant, scenario string
		broken              func(*SimRuntime) Runtime
	}{
		{"no-false-delivery", "calm", falseDelivery},
		{"drop-conservation", "lossy", mutate("hide-drop")},
		{"ledger-conservation", "calm", mutate("double-observer")},
		{"eventual-delivery", "calm", mutate("silent-partition")},
		{"view-hygiene", "graceful-drain", mutate("dead-in-view")},
		{"bounded-recovery", "crash-storm-recover", mutate("silent-partition")},
		{"fairness-convergence", "aimd-fair", mutate("skew-late")},
	} {
		t.Run(row.invariant, func(t *testing.T) {
			sc, ok := ByName(row.scenario)
			if !ok {
				t.Fatalf("missing builtin %q", row.scenario)
			}
			res := Execute(row.broken(NewSimRuntime(sc, 1)), sc, 1)
			for _, v := range res.Violations {
				if strings.HasPrefix(v, row.invariant+": ") {
					t.Log(v)
					return
				}
			}
			t.Errorf("%s stayed green on broken %s:\n%s", row.invariant, row.scenario, res.String())
		})
	}
}

// TestRunRefusesForeignIDs: every Run method that takes a peer id
// refuses one outside the population instead of panicking — a custom
// Step reaches them all through fairgossip.RunScenarioSpec — and the run
// stays green on the sim and live columns.
func TestRunRefusesForeignIDs(t *testing.T) {
	probe := func(r *Run) {
		for _, id := range []int{-1, r.N() + 5} {
			if r.NodeUp(id) || r.NodeFree(id) {
				t.Errorf("foreign id %d reads as up or free-riding", id)
			}
			r.Crash(id)
			r.Leave(id)
			r.Rejoin(id)
			r.SetFreeRider(id, true)
			r.RebindPeer(id)
			r.Resubscribe(id)
		}
		r.Partition([]int{-1, r.N() + 5})
		r.Heal()
	}
	sc := Scenario{Name: "foreign-ids", Steps: []Step{{Round: 3, Action: probe}}}
	for _, build := range []func() Runtime{
		func() Runtime { return NewSimRuntime(sc, 1) },
		func() Runtime { return NewLiveRuntime(sc, 1) },
	} {
		if res := Execute(build(), sc, 1); !res.Ok() || res.DeliveryRatio != 1 {
			t.Errorf("violations:\n%s", res.String())
		}
	}
}
