package scenario

import (
	"fmt"
	"strings"
	"testing"

	"fairgossip/internal/core"
	"fairgossip/internal/fairness"
	"fairgossip/internal/live"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/transport"
)

// driver is the per-peer and fault surface the two drivers of
// protocol.Peer share, signature for signature; the assignments below
// are the compile-time check that both still have it.
type driver interface {
	N() int
	Up(id int) bool
	Subscribe(id int, f pubsub.Filter) (pubsub.SubID, bool)
	Unsubscribe(id int, sub pubsub.SubID) bool
	Publish(id int, topic string, attrs []pubsub.Attr, payload []byte) bool
	OnDeliver(id int, fn func(*pubsub.Event)) bool
	Crash(id int) bool
	Rejoin(id int) bool
	SetFreeRider(id int, on bool) bool
	Leave(id int) bool
	Join(seed int) (int, error)
	Partition(side []int)
	Heal()
	SetShape(p transport.Profile)
	Views() [][]int
	Settle(rounds int)
	Stop()
}

var (
	_ driver = (*core.Cluster)(nil)
	_ driver = (*live.Cluster)(nil)
)

// TestDriversAnswerAlike: each row makes the same calls on an unstarted
// simulated and live cluster and must read the same answers on both —
// refusals, up states, population and what the ledger was charged.
// Neither cluster charges the §3.2 churn penalty (the engine's Run.Rejoin
// does), so the ledger rows see only what a driver sent: a rejoin that
// re-announced would show. Calls after Stop are each driver's own
// business and stay out of it.
func TestDriversAnswerAlike(t *testing.T) {
	sc := Scenario{Name: "drivers", N: 8}
	drivers := []struct {
		name  string
		build func() (driver, *fairness.Ledger)
	}{
		{"sim", func() (driver, *fairness.Ledger) {
			c := NewSimRuntime(sc, 1).Cluster
			return c, c.Ledger
		}},
		{"live", func() (driver, *fairness.Ledger) {
			c := NewLiveRuntime(sc, 1).Cluster
			return c, c.Ledger()
		}},
	}
	rows := []struct {
		name string
		want string
		run  func(d driver, l *fairness.Ledger) []any
	}{
		{"foreign ids are refused and grow nothing", "[" + strings.Repeat("false ", 18) + "8 8]",
			func(d driver, l *fairness.Ledger) []any {
				var got []any
				for _, id := range []int{-1, d.N()} {
					_, subscribed := d.Subscribe(id, pubsub.MatchAll())
					got = append(got, subscribed, d.Unsubscribe(id, 1), d.Publish(id, "t", nil, nil),
						d.OnDeliver(id, func(*pubsub.Event) {}), d.Crash(id), d.Rejoin(id),
						d.SetFreeRider(id, true), d.Leave(id), d.Up(id))
				}
				return append(got, d.N(), l.Len())
			}},
		{"crash twice", "[true true false]",
			func(d driver, _ *fairness.Ledger) []any { return []any{d.Crash(2), d.Crash(2), d.Up(2)} }},
		{"leave of a crashed peer announces nothing", "[true true false true]",
			func(d driver, l *fairness.Ledger) []any {
				crashed := d.Crash(2)
				before := l.Account(2)
				return []any{crashed, d.Leave(2), d.Up(2), l.Account(2) == before}
			}},
		{"partition ignores foreign ids", "[8 true]",
			func(d driver, _ *fairness.Ledger) []any {
				d.Partition([]int{-1, d.N(), 1 << 40, 1})
				return []any{d.N(), d.Up(1)}
			}},
		{"join through a bad seed", "[true true 8 8]",
			func(d driver, l *fairness.Ledger) []any {
				_, low := d.Join(-1)
				_, high := d.Join(d.N())
				return []any{low != nil, high != nil, d.N(), l.Len()}
			}},
		{"rejoin of an up peer does nothing", "[true true true]",
			func(d driver, l *fairness.Ledger) []any {
				before := l.Account(2)
				return []any{d.Rejoin(2), d.Up(2), l.Account(2) == before}
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, drv := range drivers {
				d, l := drv.build()
				got := fmt.Sprint(row.run(d, l))
				d.Stop()
				if got != row.want {
					t.Errorf("%s answered %s, want %s", drv.name, got, row.want)
				}
			}
		})
	}
}
