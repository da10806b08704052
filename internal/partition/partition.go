// Package partition implements the data-placement strategies the paper
// compares when motivating the hash ring (§IV-B):
//
//   - Modulo: HVAC's original static hash partitioning — hash(path) mod N
//     over the live node list. Correct and balanced, but any membership
//     change re-maps almost every key ("not only is the lost data
//     reassigned to other nodes, but well-cached data is also relocated").
//   - MultiHash: keep the original slot table and, when the first hash
//     lands on a dead node, retry with successive derived hashes. Moves
//     only the failed node's keys but degrades under repeated failures.
//   - Range: contiguous key-range assignment. On failure either the
//     successor absorbs the whole range (minimal movement, poor balance)
//     or all ranges are re-split (balanced, huge movement).
//   - Ring: the consistent-hash ring (package hashring) — minimal
//     movement and balanced via virtual nodes; the paper's choice.
//
// All strategies implement Partitioner so the movement experiment in
// movement.go can compare them head-to-head.
package partition

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hashring"
	"repro/internal/xhash"
)

// NodeID aliases the cluster-wide node identifier.
type NodeID = hashring.NodeID

// Partitioner maps keys to owning nodes under a mutable membership.
type Partitioner interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Owner returns the node responsible for key; ok=false if no live
	// nodes remain.
	Owner(key string) (NodeID, bool)
	// Fail marks node dead, triggering the strategy's reassignment rule.
	Fail(node NodeID)
	// Live returns the live nodes in deterministic order.
	Live() []NodeID
}

// Modulo is HVAC's original static hash partitioner: FNV-1a of the path,
// modulo the number of live nodes, indexed into the sorted live list.
// Owner takes no lock — it is ftcache's per-read placement under the
// static strategies — so the list is published copy-on-write.
type Modulo struct {
	mu   sync.Mutex               // serializes Fail
	live atomic.Pointer[[]NodeID] // sorted; replaced, never edited
}

// NewModulo creates a Modulo partitioner over nodes.
func NewModulo(nodes []NodeID) *Modulo {
	live := append([]NodeID(nil), nodes...)
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	m := &Modulo{}
	m.live.Store(&live)
	return m
}

// Name implements Partitioner.
func (m *Modulo) Name() string { return "modulo" }

// Owner implements Partitioner.
func (m *Modulo) Owner(key string) (NodeID, bool) {
	live := *m.live.Load()
	if len(live) == 0 {
		return "", false
	}
	h := xhash.FNV1aString(key)
	return live[h%uint64(len(live))], true
}

// Fail implements Partitioner. Removing a node changes len(live) and so
// re-maps nearly every key — the behaviour the paper calls out as the
// core deficiency of static partitioning.
func (m *Modulo) Fail(node NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := *m.live.Load()
	for i, n := range cur {
		if n == node {
			next := append(append([]NodeID(nil), cur[:i]...), cur[i+1:]...)
			m.live.Store(&next)
			return
		}
	}
}

// Live implements Partitioner.
func (m *Modulo) Live() []NodeID { return append([]NodeID(nil), *m.live.Load()...) }

// MultiHash keeps the original slot table fixed and probes derived hash
// functions until it finds a live slot. The i-th hash of a key is a
// splitmix64 re-mix of the base hash, matching the "employing multiple
// hash functions" alternative in §IV-B.
type MultiHash struct {
	mu    sync.RWMutex
	slots []NodeID // original membership; never shrinks
	dead  map[NodeID]bool
	nDead int
}

// NewMultiHash creates a MultiHash partitioner over nodes.
func NewMultiHash(nodes []NodeID) *MultiHash {
	s := append([]NodeID(nil), nodes...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return &MultiHash{slots: s, dead: make(map[NodeID]bool)}
}

// Name implements Partitioner.
func (m *MultiHash) Name() string { return "multihash" }

// Owner implements Partitioner.
func (m *MultiHash) Owner(key string) (NodeID, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.nDead >= len(m.slots) {
		return "", false
	}
	h := xhash.XXH64String(key, 0)
	// Bounded probe sequence; with d dead of s slots the expected probe
	// count is s/(s-d), so 64 tries virtually never falls through.
	for i := 0; i < 64; i++ {
		n := m.slots[h%uint64(len(m.slots))]
		if !m.dead[n] {
			return n, true
		}
		h = xhash.Mix64(h + 0x9E3779B97F4A7C15) // next hash function
	}
	// Deterministic fallback: first live slot clockwise of the last probe.
	start := int(h % uint64(len(m.slots)))
	for i := 0; i < len(m.slots); i++ {
		n := m.slots[(start+i)%len(m.slots)]
		if !m.dead[n] {
			return n, true
		}
	}
	return "", false
}

// Fail implements Partitioner.
func (m *MultiHash) Fail(node NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range m.slots {
		if n == node && !m.dead[n] {
			m.dead[n] = true
			m.nDead++
			return
		}
	}
}

// Live implements Partitioner.
func (m *MultiHash) Live() []NodeID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]NodeID, 0, len(m.slots)-m.nDead)
	for _, n := range m.slots {
		if !m.dead[n] {
			out = append(out, n)
		}
	}
	return out
}

// Range assigns contiguous hash ranges to nodes (§IV-B's range
// partitioning, citing Özsu & Valduriez). Two failure policies:
// successor absorption (minimal movement, imbalanced) or full re-split
// (balanced, extensive movement).
type Range struct {
	mu sync.RWMutex
	// bounds[i] is the exclusive upper bound of owners[i]'s range;
	// bounds[len-1] is implicitly 2^64 (checked via < on uint64).
	owners    []NodeID
	bounds    []uint64
	rebalance bool
}

// NewRange creates a Range partitioner with equal ranges over nodes.
// If rebalanceOnFailure is true, node failure re-splits the space evenly
// across survivors; otherwise the failed range merges into its successor.
func NewRange(nodes []NodeID, rebalanceOnFailure bool) *Range {
	r := &Range{rebalance: rebalanceOnFailure}
	sorted := append([]NodeID(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	r.split(sorted)
	return r
}

// split assigns equal ranges over the given nodes.
func (r *Range) split(nodes []NodeID) {
	n := len(nodes)
	r.owners = append(r.owners[:0], nodes...)
	r.bounds = r.bounds[:0]
	if n == 0 {
		return
	}
	width := ^uint64(0)/uint64(n) + 1 // ceil(2^64 / n), wraps to 0 when n==1
	for i := 1; i <= n; i++ {
		if i == n {
			r.bounds = append(r.bounds, ^uint64(0))
		} else {
			r.bounds = append(r.bounds, uint64(i)*width-1)
		}
	}
}

// Name implements Partitioner.
func (r *Range) Name() string {
	if r.rebalance {
		return "range-rebalance"
	}
	return "range-absorb"
}

// Owner implements Partitioner.
func (r *Range) Owner(key string) (NodeID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.owners) == 0 {
		return "", false
	}
	h := xhash.XXH64String(key, 0)
	i := sort.Search(len(r.bounds), func(i int) bool { return r.bounds[i] >= h })
	return r.owners[i], true
}

// Fail implements Partitioner.
func (r *Range) Fail(node NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := -1
	for i, n := range r.owners {
		if n == node {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	if r.rebalance {
		survivors := append(append([]NodeID(nil), r.owners[:idx]...), r.owners[idx+1:]...)
		r.split(survivors)
		return
	}
	// Successor absorption: the next range's owner extends downward; the
	// last range merges into its predecessor.
	if idx == len(r.owners)-1 && idx > 0 {
		r.owners = r.owners[:idx]
		r.bounds = r.bounds[:idx]
		r.bounds[idx-1] = ^uint64(0)
		return
	}
	r.owners = append(r.owners[:idx], r.owners[idx+1:]...)
	r.bounds = append(r.bounds[:idx], r.bounds[idx+1:]...)
}

// Live implements Partitioner.
func (r *Range) Live() []NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := append([]NodeID(nil), r.owners...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Ring adapts hashring.Ring to the Partitioner interface.
type Ring struct {
	ring *hashring.Ring
}

// NewRing creates a ring partitioner with the given virtual-node count.
func NewRing(nodes []NodeID, virtualNodes int) *Ring {
	return &Ring{ring: hashring.NewWithNodes(
		hashring.Config{VirtualNodes: virtualNodes}, nodes)}
}

// Name implements Partitioner.
func (r *Ring) Name() string { return "hashring" }

// Owner implements Partitioner.
func (r *Ring) Owner(key string) (NodeID, bool) { return r.ring.Owner(key) }

// Fail implements Partitioner.
func (r *Ring) Fail(node NodeID) { r.ring.Remove(node) }

// Live implements Partitioner.
func (r *Ring) Live() []NodeID { return r.ring.Nodes() }

// Underlying exposes the wrapped hash ring for analysis helpers.
func (r *Ring) Underlying() *hashring.Ring { return r.ring }
