// Package dam models the data-aware multicast baseline the paper discusses
// in §4.2 (Baehni, Eugster, Guerraoui — DSN'04): gossip groups organised
// along a topic hierarchy. Dissemination is fair in the small — "processes
// contribute only for messages they deliver" — but gluing the hierarchy
// together forces some processes into supertopic groups, where they carry
// the traffic of *every* descendant topic like a de-facto broker.
//
// The model is an accounting-level reproduction: per publish, every member
// of every carrying group is charged `fanout` gossip sends, and natural
// subscribers record deliveries. That is exactly the data EXP-T2 needs
// (who carries vs. who benefits); gossip timing inside groups adds nothing
// to the claim.
package dam

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"fairgossip/internal/fairness"
)

// Hierarchy is a forest of dot-separated topics ("sports",
// "sports.football", "sports.football.uefa"). Parent/child relations are
// implied by the names.
type Hierarchy struct {
	topics map[string]bool
}

// NewHierarchy returns a hierarchy containing the given topics and all
// their implied ancestors.
func NewHierarchy(topics ...string) *Hierarchy {
	h := &Hierarchy{topics: make(map[string]bool)}
	for _, t := range topics {
		h.Add(t)
	}
	return h
}

// Add inserts a topic and its ancestors.
func (h *Hierarchy) Add(topic string) {
	for topic != "" {
		h.topics[topic] = true
		topic = parentOf(topic)
	}
}

// Contains reports whether the topic is known.
func (h *Hierarchy) Contains(topic string) bool { return h.topics[topic] }

// Ancestors returns the proper ancestors of a topic, nearest first.
func (h *Hierarchy) Ancestors(topic string) []string {
	var out []string
	for p := parentOf(topic); p != ""; p = parentOf(p) {
		out = append(out, p)
	}
	return out
}

// Topics returns all known topics, sorted.
func (h *Hierarchy) Topics() []string {
	out := make([]string, 0, len(h.topics))
	for t := range h.topics {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func parentOf(topic string) string {
	if i := strings.LastIndexByte(topic, '.'); i >= 0 {
		return topic[:i]
	}
	return ""
}

// DAM is the data-aware multicast instance.
type DAM struct {
	h      *Hierarchy
	ledger *fairness.Ledger
	rng    *rand.Rand

	fanout  int
	bridges int // members each non-leaf group recruits per child group

	subs   map[string]map[int]bool // natural interest
	groups map[string]map[int]bool // carrying membership (subs + recruits)
	forced map[int]map[string]bool // node → supertopics it was forced into
}

// EventOverhead is the per-event wire overhead used for accounting.
const EventOverhead = 16

// New builds a DAM over the hierarchy; fanout is the per-member gossip
// out-degree inside a group, bridges the number of members each group
// recruits into its parent group to glue the hierarchy.
func New(h *Hierarchy, ledger *fairness.Ledger, fanout, bridges int, seed int64) *DAM {
	if fanout < 1 {
		fanout = 1
	}
	if bridges < 1 {
		bridges = 1
	}
	return &DAM{
		h:       h,
		ledger:  ledger,
		rng:     rand.New(rand.NewSource(seed)),
		fanout:  fanout,
		bridges: bridges,
		subs:    make(map[string]map[int]bool),
		groups:  make(map[string]map[int]bool),
		forced:  make(map[int]map[string]bool),
	}
}

// Subscribe registers natural interest of node in topic (and, by
// hierarchy semantics, in all its descendants). Group maintenance may
// recruit members of this group into ancestor groups.
func (d *DAM) Subscribe(node int, topic string) error {
	if !d.h.Contains(topic) {
		return fmt.Errorf("dam: unknown topic %q", topic)
	}
	if d.subs[topic] == nil {
		d.subs[topic] = make(map[int]bool)
	}
	if d.subs[topic][node] {
		return nil
	}
	d.subs[topic][node] = true
	d.join(topic, node)
	a := d.ledger.Account(node)
	d.ledger.SetFilters(node, a.Filters+1)
	d.maintain(topic)
	return nil
}

func (d *DAM) join(topic string, node int) {
	if d.groups[topic] == nil {
		d.groups[topic] = make(map[int]bool)
	}
	d.groups[topic][node] = true
}

// maintain enforces the glue invariant: every group with members must
// have `bridges` of its members present in its parent group. Recruits
// that are not natural subscribers of the parent become the §4.2
// "forced supertopic" processes.
func (d *DAM) maintain(topic string) {
	for t := topic; t != ""; t = parentOf(t) {
		par := parentOf(t)
		if par == "" {
			return
		}
		members := d.sortedMembers(t)
		if len(members) == 0 {
			return
		}
		present := 0
		for _, m := range members {
			if d.groups[par][m] {
				present++
			}
		}
		need := d.bridges - present
		for _, m := range members {
			if need <= 0 {
				break
			}
			if d.groups[par] != nil && d.groups[par][m] {
				continue
			}
			d.join(par, m)
			if !d.subs[par][m] {
				if d.forced[m] == nil {
					d.forced[m] = make(map[string]bool)
				}
				d.forced[m][par] = true
			}
			need--
		}
	}
}

func (d *DAM) sortedMembers(topic string) []int {
	out := make([]int, 0, len(d.groups[topic]))
	for m := range d.groups[topic] {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// interested reports natural interest of node in an event on topic
// (subscription to the topic or any ancestor).
func (d *DAM) interested(node int, topic string) bool {
	for t := topic; t != ""; t = parentOf(t) {
		if d.subs[t][node] {
			return true
		}
	}
	return false
}

// Publish disseminates an event on topic: every member of the topic's
// group and of all ancestor groups carries it (fanout sends each);
// naturally interested processes deliver. Returns the delivery count.
func (d *DAM) Publish(node int, topic string, eventSize int) (int, error) {
	if !d.h.Contains(topic) {
		return 0, fmt.Errorf("dam: unknown topic %q", topic)
	}
	size := eventSize + EventOverhead
	d.ledger.AddPublish(node, eventSize)

	carriers := make(map[int]bool)
	for t := topic; t != ""; t = parentOf(t) {
		for m := range d.groups[t] {
			carriers[m] = true
		}
	}
	delivered := 0
	for _, m := range sortedKeys(carriers) {
		d.ledger.AddSend(m, fairness.ClassApp, d.fanout*size)
		if d.interested(m, topic) {
			d.ledger.AddDelivery(m)
			delivered++
		}
	}
	return delivered, nil
}

func sortedKeys[K cmp.Ordered, V any](set map[K]V) []K {
	return slices.Sorted(maps.Keys(set))
}

// ForcedMembers returns the nodes recruited into supertopic groups they
// have no natural interest in, with the topics they were forced into.
func (d *DAM) ForcedMembers() map[int][]string {
	out := make(map[int][]string, len(d.forced))
	for _, n := range sortedKeys(d.forced) {
		out[n] = sortedKeys(d.forced[n])
	}
	return out
}

// GroupSize returns the carrying-group size of a topic.
func (d *DAM) GroupSize(topic string) int { return len(d.groups[topic]) }

// Subscribers returns the natural subscribers of a topic, sorted.
func (d *DAM) Subscribers(topic string) []int {
	out := make([]int, 0, len(d.subs[topic]))
	for n := range d.subs[topic] {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
