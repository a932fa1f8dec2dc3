// Package structured implements the paper's §4.1 baseline (PAPER.md): a
// Pastry-like prefix-routing identifier space and Scribe-style
// rendezvous multicast trees built on top of it.
//
// Substitution note: real Pastry optimises routing-table entries for network proximity. The paper's fairness
// argument depends only on *who forwards* — i.e. on tree membership
// induced by prefix routes — so this implementation routes on the
// identifier space alone and builds routing state from the global node
// list (the simulator's omniscience stands in for Pastry's join
// protocol). Message costs are charged to a fairness.Ledger exactly like
// the gossip protocols charge theirs.
package structured

import (
	"fmt"
	"math/rand"
	"sort"
)

// digits is the number of 4-bit digits in a 64-bit identifier.
const digits = 16

// Ring is a population of n nodes with random 64-bit identifiers,
// supporting Pastry-style prefix routing. Node indices are the dense
// simulation IDs; ring identifiers are the DHT coordinates.
type Ring struct {
	ids    []uint64 // ids[i] = ring identifier of node i
	sorted []int    // node indices sorted by identifier
}

// NewRing assigns deterministic pseudo-random identifiers to n nodes.
func NewRing(n int, seed int64) *Ring {
	rng := rand.New(rand.NewSource(seed))
	r := &Ring{ids: make([]uint64, n), sorted: make([]int, n)}
	used := make(map[uint64]struct{}, n)
	for i := 0; i < n; i++ {
		for {
			id := rng.Uint64()
			if _, dup := used[id]; !dup {
				used[id] = struct{}{}
				r.ids[i] = id
				break
			}
		}
		r.sorted[i] = i
	}
	sort.Slice(r.sorted, func(a, b int) bool { return r.ids[r.sorted[a]] < r.ids[r.sorted[b]] })
	return r
}

// Len returns the population size.
func (r *Ring) Len() int { return len(r.ids) }

// ID returns node i's ring identifier.
func (r *Ring) ID(i int) uint64 { return r.ids[i] }

// circularDist is the shorter way around the 2^64 ring between a and b.
func circularDist(a, b uint64) uint64 {
	d := a - b
	if b > a {
		d = b - a
	}
	if d > (1 << 63) {
		d = -d // wraparound: 2^64 - d in uint64 arithmetic
	}
	return d
}

// sharedDigits counts the leading 4-bit digits a and b have in common.
func sharedDigits(a, b uint64) int {
	for i := 0; i < digits; i++ {
		shift := uint(60 - 4*i)
		if (a>>shift)&0xF != (b>>shift)&0xF {
			return i
		}
	}
	return digits
}

// Closest returns the node whose identifier is circularly closest to key
// (the rendezvous node for that key).
func (r *Ring) Closest(key uint64) int {
	// Binary search on the sorted ring, then compare the two neighbours.
	n := len(r.sorted)
	pos := sort.Search(n, func(i int) bool { return r.ids[r.sorted[i]] >= key })
	best := r.sorted[pos%n]
	for _, cand := range []int{r.sorted[(pos+n-1)%n], r.sorted[(pos+1)%n]} {
		if circularDist(r.ids[cand], key) < circularDist(r.ids[best], key) {
			best = cand
		}
	}
	return best
}

// NextHop returns the node cur forwards to when routing toward key, or
// cur itself when cur is the destination.
//
// Pastry's routing table holds, per (prefix-row, digit) slot, *one* node
// with that prefix — not the globally best match — so a route fixes one
// digit level per hop. We emulate that: the next hop is the circularly
// closest node among those sharing the *smallest achievable* strictly
// longer prefix with the key. When no longer prefix is achievable, the
// leaf-set rule applies: move strictly numerically closer.
func (r *Ring) NextHop(cur int, key uint64) int {
	dest := r.Closest(key)
	if cur == dest {
		return cur
	}
	curShared := sharedDigits(r.ids[cur], key)
	curDist := circularDist(r.ids[cur], key)

	// Smallest level > curShared achievable. Among that level's
	// candidates, tie-break by XOR proximity to cur's own identifier:
	// real Pastry nodes fill the same routing-table slot with different
	// peers, so different sources route through different interior nodes
	// — without this, every source funnels through one key-determined
	// hub and multicast trees degenerate into stars.
	bestLevel := digits + 1
	bestPrefix := -1
	bestLeaf, bestLeafDist := -1, curDist
	for i := range r.ids {
		if i == cur {
			continue
		}
		s := sharedDigits(r.ids[i], key)
		d := circularDist(r.ids[i], key)
		if s > curShared {
			switch {
			case s < bestLevel:
				bestLevel = s
				bestPrefix = i
			case s == bestLevel && bestPrefix >= 0 &&
				r.ids[i]^r.ids[cur] < r.ids[bestPrefix]^r.ids[cur]:
				bestPrefix = i
			}
		}
		if d < bestLeafDist {
			bestLeaf, bestLeafDist = i, d
		}
	}
	if bestPrefix >= 0 {
		return bestPrefix
	}
	if bestLeaf >= 0 {
		return bestLeaf
	}
	return dest
}

// Route returns the full path from node `from` to the rendezvous of key,
// inclusive of both endpoints. Prefix hops strictly increase the shared
// prefix level; if a wraparound corner case would revisit a node, the
// route falls back to leaf-set hops (strictly decreasing distance), so it
// always terminates.
func (r *Ring) Route(from int, key uint64) ([]int, error) {
	path := []int{from}
	visited := map[int]bool{from: true}
	cur := from
	for steps := 0; ; steps++ {
		if steps > len(r.ids)+digits {
			return nil, fmt.Errorf("structured: routing loop from %d toward %x", from, key)
		}
		next := r.NextHop(cur, key)
		if next == cur {
			return path, nil
		}
		if visited[next] {
			next = r.closerLeaf(cur, key)
			if next == cur {
				return path, nil
			}
		}
		visited[next] = true
		path = append(path, next)
		cur = next
	}
}

// closerLeaf returns the circularly closest node to key that is strictly
// closer than cur (cur itself when cur is the destination).
func (r *Ring) closerLeaf(cur int, key uint64) int {
	best, bestDist := cur, circularDist(r.ids[cur], key)
	for i := range r.ids {
		if d := circularDist(r.ids[i], key); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// KeyForTopic hashes a topic string onto the ring: FNV-1a with a
// murmur-style finalizer. The finalizer matters: plain FNV of strings
// sharing a prefix ("topic-000", "topic-001", …) differs only in the low
// bits, and ring placement is governed by the high bits — without mixing,
// every such topic would land on the same rendezvous neighbourhood.
func KeyForTopic(topic string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(topic); i++ {
		h ^= uint64(topic[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
