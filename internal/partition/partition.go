// Package partition holds the placement studies behind the paper's
// choice of the hash ring: the §IV-B data-movement comparison
// (movement.go) and the Fig 6(b) load-redistribution Monte-Carlo
// (redistribute.go). The strategies compared in §IV-B are:
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
//   - Jump: jump consistent hash (jump.go), minimal movement on growth
//     but not on an arbitrary member's removal.
//   - *hashring.Ring: the consistent-hash ring itself — minimal movement
//     and balanced via virtual nodes; the paper's choice.
//
// Partitioner is the subset of the ring's own method set that the
// studies need, so the ring and every baseline plug in unadapted.
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

// Partitioner maps keys to owning nodes under a mutable membership. Its
// methods carry hashring.Ring's signatures, so a *hashring.Ring is one.
type Partitioner interface {
	// Owner returns the node responsible for key; ok=false if no live
	// nodes remain.
	Owner(key string) (NodeID, bool)
	// Remove drops node from the membership, triggering the strategy's
	// reassignment rule. Removing a non-member is a no-op.
	Remove(node NodeID)
	// Nodes returns the live nodes in sorted order.
	Nodes() []NodeID
}

// Modulo is HVAC's original static hash partitioner: FNV-1a of the path,
// modulo the number of live nodes, indexed into the sorted live list.
// Owner takes no lock — it is ftcache's per-read placement under the
// static strategies — so the list is published copy-on-write.
type Modulo struct {
	mu   sync.Mutex               // serializes Remove
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

// Owner implements Partitioner.
func (m *Modulo) Owner(key string) (NodeID, bool) {
	live := *m.live.Load()
	if len(live) == 0 {
		return "", false
	}
	h := xhash.FNV1aString(key)
	return live[h%uint64(len(live))], true
}

// Remove implements Partitioner. Removing a node changes len(live) and
// so re-maps nearly every key — the behaviour the paper calls out as the
// core deficiency of static partitioning.
func (m *Modulo) Remove(node NodeID) {
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

// Nodes implements Partitioner.
func (m *Modulo) Nodes() []NodeID { return append([]NodeID(nil), *m.live.Load()...) }

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

// Remove implements Partitioner.
func (m *MultiHash) Remove(node NodeID) {
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

// Nodes implements Partitioner.
func (m *MultiHash) Nodes() []NodeID {
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

// Remove implements Partitioner.
func (r *Range) Remove(node NodeID) {
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

// Nodes implements Partitioner.
func (r *Range) Nodes() []NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := append([]NodeID(nil), r.owners...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
