package structured

// The package is sim-deterministic (listed in
// analysis.DeterministicPackages): ROADMAP item 3 wires it into the live
// runtime as a pluggable Disseminator, so it is held to the same
// fixed-seed reproducibility bar as the sim packages now, before the
// refactor lands.

import (
	"sort"

	"fairgossip/internal/fairness"
)

// Scribe implements Scribe-style application-level multicast: per-topic
// rendezvous trees embedded in the prefix-routing overlay. Subscribers
// route JOIN messages toward the topic's rendezvous node; every node on
// the path becomes a forwarder of the tree *whether or not it is
// interested* — the unfairness the paper calls out in §4.1.
type Scribe struct {
	ring   *Ring
	ledger *fairness.Ledger
	trees  map[string]*tree
	subs   map[string]map[int]bool
}

type tree struct {
	root     int
	parent   map[int]int   // child → parent (root maps to itself)
	children map[int][]int // parent → ordered children
}

// Wire-size constants for accounting (bytes).
const (
	JoinMsgSize     = 32
	PublishOverhead = 16
)

// NewScribe builds a Scribe instance over a ring, charging costs to the
// ledger.
func NewScribe(ring *Ring, ledger *fairness.Ledger) *Scribe {
	return &Scribe{
		ring:   ring,
		ledger: ledger,
		trees:  make(map[string]*tree),
		subs:   make(map[string]map[int]bool),
	}
}

func (s *Scribe) treeFor(topic string) *tree {
	t, ok := s.trees[topic]
	if !ok {
		root := s.ring.Closest(KeyForTopic(topic))
		t = &tree{
			root:     root,
			parent:   map[int]int{root: root},
			children: make(map[int][]int),
		}
		s.trees[topic] = t
	}
	return t
}

// Subscribe joins node to the topic's multicast tree: a JOIN routes
// toward the rendezvous, grafting onto the first node already in the
// tree. Each hop is charged as infrastructure contribution to its
// sender, and the subscriber's filter count is incremented.
func (s *Scribe) Subscribe(node int, topic string) error {
	if s.subs[topic] == nil {
		s.subs[topic] = make(map[int]bool)
	}
	if s.subs[topic][node] {
		return nil
	}
	s.subs[topic][node] = true
	s.bumpFilters(node, +1)

	t := s.treeFor(topic)
	if _, inTree := t.parent[node]; inTree {
		return nil
	}
	path, err := s.ring.Route(node, KeyForTopic(topic))
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(path); i++ {
		child, par := path[i], path[i+1]
		s.ledger.AddSend(child, fairness.ClassInfra, JoinMsgSize)
		if _, inTree := t.parent[child]; !inTree {
			t.parent[child] = par
			t.children[par] = append(t.children[par], child)
		} else {
			break // grafted onto the existing tree
		}
	}
	return nil
}

// Unsubscribe removes the node's interest. Scribe keeps it as a
// forwarder if it has children (pruning only leaf non-subscribers, as in
// the original protocol).
func (s *Scribe) Unsubscribe(node int, topic string) {
	if !s.subs[topic][node] {
		return
	}
	delete(s.subs[topic], node)
	s.bumpFilters(node, -1)
	t := s.trees[topic]
	if t == nil {
		return
	}
	// Prune while the node is a childless non-subscriber non-root.
	for cur := node; cur != t.root && len(t.children[cur]) == 0 && !s.subs[topic][cur]; {
		par := t.parent[cur]
		delete(t.parent, cur)
		kids := t.children[par]
		for i, k := range kids {
			if k == cur {
				t.children[par] = append(kids[:i], kids[i+1:]...)
				break
			}
		}
		cur = par
	}
}

func (s *Scribe) bumpFilters(node, delta int) {
	a := s.ledger.Account(node)
	s.ledger.SetFilters(node, a.Filters+delta)
}

// Publish routes the event from the publisher to the rendezvous and
// disseminates it down the tree. Forwarding costs are charged to each
// sender (application class); subscribers record deliveries. It returns
// the number of deliveries.
func (s *Scribe) Publish(node int, topic string, eventSize int) (int, error) {
	t := s.treeFor(topic)
	size := eventSize + PublishOverhead
	s.ledger.AddPublish(node, eventSize)

	// Route to the rendezvous.
	path, err := s.ring.Route(node, KeyForTopic(topic))
	if err != nil {
		return 0, err
	}
	for i := 0; i+1 < len(path); i++ {
		s.ledger.AddSend(path[i], fairness.ClassApp, size)
	}

	// Tree dissemination from the root.
	delivered := 0
	if s.subs[topic][t.root] {
		s.ledger.AddDelivery(t.root)
		delivered++
	}
	queue := []int{t.root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, child := range t.children[cur] {
			s.ledger.AddSend(cur, fairness.ClassApp, size)
			if s.subs[topic][child] {
				s.ledger.AddDelivery(child)
				delivered++
			}
			queue = append(queue, child)
		}
	}
	return delivered, nil
}

// Subscribers returns the current subscriber set of a topic, in node
// order (map iteration is scheduler-random; callers compare and report).
func (s *Scribe) Subscribers(topic string) []int {
	out := make([]int, 0, len(s.subs[topic]))
	for n := range s.subs[topic] {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// TreeMembers returns every node currently part of the topic's tree
// (root, forwarders, subscribers).
func (s *Scribe) TreeMembers(topic string) []int {
	t := s.trees[topic]
	if t == nil {
		return nil
	}
	out := make([]int, 0, len(t.parent))
	for n := range t.parent {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// UninterestedForwarders returns tree members with children that are not
// subscribed to the topic — the processes "contributing without
// benefiting from the system" (§4.1).
func (s *Scribe) UninterestedForwarders(topic string) []int {
	t := s.trees[topic]
	if t == nil {
		return nil
	}
	var out []int
	for n := range t.parent {
		if len(t.children[n]) > 0 && !s.subs[topic][n] {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// ForwardEdgeStats counts the topic tree's forwarding edges (one send per
// edge per event, charged to the parent) and how many of them are
// performed by nodes not subscribed to the topic.
func (s *Scribe) ForwardEdgeStats(topic string) (foreign, total int) {
	t := s.trees[topic]
	if t == nil {
		return 0, 0
	}
	for parent, kids := range t.children {
		total += len(kids)
		if !s.subs[topic][parent] {
			foreign += len(kids)
		}
	}
	return foreign, total
}

// ForeignForwardFraction returns ForwardEdgeStats as a fraction (0 when
// the tree has no edges).
func (s *Scribe) ForeignForwardFraction(topic string) float64 {
	foreign, total := s.ForwardEdgeStats(topic)
	if total == 0 {
		return 0
	}
	return float64(foreign) / float64(total)
}
