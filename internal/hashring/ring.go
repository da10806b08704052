// Package hashring implements the consistent-hash ring with virtual nodes
// that FT-Cache uses for load-balanced elastic recaching (paper §IV-B).
//
// Both data items (file paths) and nodes are mapped onto a logical
// circular 64-bit hash space. A key is owned by the node whose point is
// nearest in the clockwise direction. Each physical node contributes V
// virtual points so that, when a node fails, its load is spread over many
// successors instead of a single neighbour.
//
// Ring keeps its points in copy-on-write sorted slices: lock-free
// O(log P) lookups against an immutable snapshot, O(P) membership change
// (P = total virtual points) — the right trade for the read-dominated
// cache path, where Owner runs on every I/O request and never takes a
// lock or contends with other readers, and membership changes only when
// a node fails or rejoins. The paper's C++ artifact kept its points in a
// std::map; the closest Go equivalent, a left-leaning red-black tree,
// lives in treering_test.go as the reference Ring's ownership is checked
// and benchmarked against.
package hashring

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/xhash"
)

// ringMetrics aggregate membership-churn observables across every ring
// in the process (each client owns a ring; they all see the same
// failures, so the aggregate is the meaningful series). Lookups are
// deliberately NOT counted — Owner is the per-I/O hot path and must
// stay free of shared-cache-line traffic.
type ringMetrics struct {
	swaps     *telemetry.Counter // snapshot publications (Add/Remove)
	keysMoved *telemetry.Counter // keys re-owned across all RecachePlans
	plans     *telemetry.Counter // PlanRecache invocations
}

// ringMetricsInst is initialized eagerly at package init rather than
// behind a sync.Once: metrics() is reached from PlanRecache, which is
// on the failure-handling hot path, and a Once.Do there would put a
// lock acquisition (and a cold-start stall) on it.
var ringMetricsInst = func() *ringMetrics {
	reg := telemetry.Default()
	return &ringMetrics{
		swaps:     reg.Counter("ftc_ring_snapshot_swaps_total"),
		keysMoved: reg.Counter("ftc_ring_keys_moved_total"),
		plans:     reg.Counter("ftc_ring_recache_plans_total"),
	}
}()

func metrics() *ringMetrics { return ringMetricsInst }

// NodeID identifies a physical node (an HVAC server instance).
type NodeID string

type point struct {
	hash uint64
	node NodeID
}

// Config controls ring construction.
type Config struct {
	// VirtualNodes is the number of points each physical node contributes.
	// The paper's production setting is 100 (§V-A, "virtual node count is
	// set to 100 per physical node").
	VirtualNodes int
}

// DefaultVirtualNodes is the paper's production virtual-node count.
const DefaultVirtualNodes = 100

// ringSnapshot is one immutable published state of the ring. Nothing in a
// snapshot is ever mutated after publication: membership changes build a
// fresh snapshot (copying maps, merging or filtering into fresh point
// slices) and atomically swap the pointer. Readers therefore see a
// consistent state with no locks and no torn reads, and a lookup racing
// a failure event simply answers from whichever state was current when
// it loaded the pointer.
type ringSnapshot struct {
	points []point             // sorted by (hash, node)
	member map[NodeID]struct{} // current physical nodes
	nodes  []NodeID            // members in sorted order
}

var emptySnapshot = &ringSnapshot{member: map[NodeID]struct{}{}}

// Ring is a consistent-hash ring backed by copy-on-write sorted point
// slices. It is safe for concurrent use: lookups are lock-free reads of
// an atomically published immutable snapshot; membership changes are
// serialized by a writer mutex and publish a new snapshot. Membership
// changes are rare (node failures), lookups happen on every I/O request.
type Ring struct {
	cfg     Config
	writeMu sync.Mutex // serializes membership changes (writers only)
	snap    atomic.Pointer[ringSnapshot]
}

// New creates an empty ring. A non-positive VirtualNodes falls back to
// DefaultVirtualNodes.
func New(cfg Config) *Ring {
	if cfg.VirtualNodes <= 0 {
		cfg.VirtualNodes = DefaultVirtualNodes
	}
	r := &Ring{cfg: cfg}
	r.snap.Store(emptySnapshot)
	return r
}

// NewWithNodes creates a ring pre-populated with nodes, sorting the
// point set once (O(P log P)) instead of per-member.
func NewWithNodes(cfg Config, nodes []NodeID) *Ring {
	r := New(cfg)
	s := &ringSnapshot{member: make(map[NodeID]struct{}, len(nodes))}
	for _, n := range nodes {
		if _, ok := s.member[n]; ok {
			continue
		}
		s.member[n] = struct{}{}
		for _, h := range pointsFor(n, r.cfg.VirtualNodes) {
			s.points = append(s.points, point{hash: h, node: n})
		}
	}
	sortPoints(s.points)
	s.nodes = sortedMembers(s.member)
	r.snap.Store(s)
	return r
}

func pointLessFn(a, b point) bool {
	if a.hash != b.hash {
		return a.hash < b.hash
	}
	return a.node < b.node
}

func sortPoints(pts []point) {
	sort.Slice(pts, func(i, j int) bool { return pointLessFn(pts[i], pts[j]) })
}

func sortedMembers(member map[NodeID]struct{}) []NodeID {
	out := make([]NodeID, 0, len(member))
	for n := range member {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// searchPoints returns the first index whose hash is >= h (len(pts) when
// none is). It matches sort.Search's semantics for the predicate
// pts[i].hash >= h, hand-rolled so the hot path pays neither the closure
// call per probe nor the func-value indirection — just a branch-light
// loop the compiler keeps in registers.
func searchPoints(pts []point, h uint64) int {
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1) // avoids overflow, always in [lo, hi)
		if pts[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ownerOf resolves h against an immutable snapshot's point slice.
func ownerOf(pts []point, h uint64) (NodeID, bool) {
	if len(pts) == 0 {
		return "", false
	}
	i := searchPoints(pts, h)
	if i == len(pts) {
		i = 0 // wrap
	}
	return pts[i].node, true
}

// pointsFor derives the virtual point hashes for a node. The first point
// is the hash of the node ID; subsequent points come from a splitmix64
// stream so they are decorrelated yet deterministic. Every ring hashes
// with seed 0, so every client of a job agrees about ownership.
func pointsFor(node NodeID, vnodes int) []uint64 {
	pts := make([]uint64, vnodes)
	state := xhash.XXH64String(string(node), 0)
	for i := range pts {
		pts[i] = xhash.SplitMix64(&state)
	}
	return pts
}

// keyHash positions a key on the 64-bit ring; shared by all ring
// implementations so they agree on ownership for equal configs.
func keyHash(key string) uint64 {
	return xhash.XXH64String(key, 0)
}

// KeyHash returns the position of key on the ring.
func (r *Ring) KeyHash(key string) uint64 {
	return keyHash(key)
}

// Add inserts node with its virtual points. Adding an existing member is
// a no-op, so rejoin after a spurious failure detection is idempotent.
func (r *Ring) Add(node NodeID) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	cur := r.snap.Load()
	if _, ok := cur.member[node]; ok {
		return
	}
	add := make([]point, 0, r.cfg.VirtualNodes)
	for _, h := range pointsFor(node, r.cfg.VirtualNodes) {
		add = append(add, point{hash: h, node: node})
	}
	sortPoints(add)
	next := &ringSnapshot{
		// Linear merge of two sorted runs into a fresh slice: O(P + V)
		// per membership change instead of re-sorting the whole set.
		points: mergePoints(cur.points, add),
		member: make(map[NodeID]struct{}, len(cur.member)+1),
	}
	for n := range cur.member {
		next.member[n] = struct{}{}
	}
	next.member[node] = struct{}{}
	next.nodes = sortedMembers(next.member)
	r.snap.Store(next)
	metrics().swaps.Inc()
	telemetry.TraceEvent(telemetry.EventRingChange, string(node), "add", int64(len(next.member)))
}

// mergePoints merges two sorted point runs in O(len(a)+len(b)) into a
// fresh slice; neither input is written (snapshots share them).
func mergePoints(a, b []point) []point {
	merged := make([]point, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if pointLessFn(a[i], b[j]) {
			merged = append(merged, a[i])
			i++
		} else {
			merged = append(merged, b[j])
			j++
		}
	}
	merged = append(merged, a[i:]...)
	merged = append(merged, b[j:]...)
	return merged
}

// Remove deletes node and all its virtual points. Removing a non-member
// is a no-op. This is the operation the HVAC client performs when the
// failure detector declares a server dead.
func (r *Ring) Remove(node NodeID) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	cur := r.snap.Load()
	if _, ok := cur.member[node]; !ok {
		return
	}
	next := &ringSnapshot{
		points: filterPoints(cur.points, node),
		member: make(map[NodeID]struct{}, len(cur.member)-1),
	}
	for n := range cur.member {
		if n != node {
			next.member[n] = struct{}{}
		}
	}
	next.nodes = sortedMembers(next.member)
	r.snap.Store(next)
	metrics().swaps.Inc()
	telemetry.TraceEvent(telemetry.EventRingChange, string(node), "remove", int64(len(next.member)))
}

// filterPoints returns a fresh sorted slice of pts minus node's points.
// The input is never written: live snapshots share it.
func filterPoints(pts []point, node NodeID) []point {
	kept := make([]point, 0, len(pts))
	for _, p := range pts {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	return kept
}

// Owner returns the node owning key: the owner of the first ring point at
// or clockwise-after the key's hash (wrapping around). ok is false when
// the ring has no members. Lock-free: it binary-searches the current
// immutable snapshot.
//
//ftc:hotpath
func (r *Ring) Owner(key string) (NodeID, bool) {
	return ownerOf(r.snap.Load().points, r.KeyHash(key))
}

// Owners returns up to n distinct physical nodes encountered walking
// clockwise from key's position. The first element equals Owner(key).
// Used for replica placement experiments; ok is false on an empty ring.
//
//ftc:hotpath
func (r *Ring) Owners(key string, n int) ([]NodeID, bool) {
	h := r.KeyHash(key)
	pts := r.snap.Load().points
	if len(pts) == 0 || n <= 0 {
		return nil, false
	}
	start := searchPoints(pts, h)
	if start == len(pts) {
		start = 0
	}
	out := make([]NodeID, 0, n)
	// Walk with an explicit index reset at the wrap instead of a modulo
	// per step: one predictable branch, not an integer division.
	i := start
	for steps := 0; steps < len(pts) && len(out) < n; steps++ {
		p := pts[i]
		i++
		if i == len(pts) {
			i = 0
		}
		if !slices.Contains(out, p.node) { // n is a handful: a scan beats a set
			out = append(out, p.node)
		}
	}
	return out, true
}

// Nodes returns the physical members in sorted order (stable for tests
// and deterministic experiment output).
func (r *Ring) Nodes() []NodeID {
	return append([]NodeID(nil), r.snap.Load().nodes...)
}

// Len returns the number of physical members.
func (r *Ring) Len() int {
	return len(r.snap.Load().member)
}

// PointCount returns the number of virtual points currently on the ring.
func (r *Ring) PointCount() int {
	return len(r.snap.Load().points)
}

// Contains reports whether node is a current member.
func (r *Ring) Contains(node NodeID) bool {
	_, ok := r.snap.Load().member[node]
	return ok
}

// Clone returns an independent copy of the ring (same config, members and
// points). Because snapshots are immutable, cloning is O(1): both rings
// share the current snapshot until either changes membership.
// Experiments use clones to explore failures without mutating the shared
// ring.
func (r *Ring) Clone() *Ring {
	c := &Ring{cfg: r.cfg}
	c.snap.Store(r.snap.Load())
	return c
}

// RecachePlan describes where the keys previously owned by a failed node
// land after its removal: the mapping a client computes, just before it
// drops the dead node from its ring, to tell each new owner what to
// prefetch.
type RecachePlan struct {
	Failed NodeID
	// Moves maps each new owner to the keys it inherits.
	Moves map[NodeID][]string
	// Lost is the total number of keys that changed owner.
	Lost int
}

// PlanRecache computes, for the given key population, which keys the
// failed node owned and who inherits each after removal. The ring itself
// is not modified. It panics if failed is not a member, because planning
// recaching for a node that is not on the ring indicates a bookkeeping
// bug in the caller.
//
// One pass: the before state is the current snapshot, the after state is
// the same point set minus the failed node's points, and each key is
// hashed once and resolved against both slices — no ring clone, no
// per-key locking, no second hash of the key.
//
//ftc:hotpath
func (r *Ring) PlanRecache(failed NodeID, keys []string) RecachePlan {
	cur := r.snap.Load()
	if _, ok := cur.member[failed]; !ok {
		panic(`hashring: PlanRecache for non-member "` + string(failed) + `"`)
	}
	after := filterPoints(cur.points, failed)
	plan := RecachePlan{Failed: failed, Moves: make(map[NodeID][]string)}
	for _, k := range keys {
		h := keyHash(k)
		owner, _ := ownerOf(cur.points, h)
		if owner != failed {
			continue
		}
		newOwner, ok := ownerOf(after, h)
		if !ok {
			continue // ring became empty; nothing can inherit
		}
		plan.Moves[newOwner] = append(plan.Moves[newOwner], k)
		plan.Lost++
	}
	m := metrics()
	m.plans.Inc()
	m.keysMoved.Add(int64(plan.Lost))
	//ftclint:ignore hotpathlock recache planning runs once per node failure, not per request; the event-trace lock is uncontended off the steady-state read path
	telemetry.TraceEvent(telemetry.EventRecachePlanned, string(failed), "plan", int64(plan.Lost))
	return plan
}

// Receivers returns the number of distinct nodes that inherit at least
// one key under the plan — the paper's Fig 6(b) "Receiver Nodes" metric.
func (p RecachePlan) Receivers() int { return len(p.Moves) }

// RejoinPlan describes the keys a rejoining node will own once re-added:
// the warm set the recovery path fills onto its NVMe before the ring swap
// so the node comes back hot instead of serving a cold cache.
type RejoinPlan struct {
	Joining NodeID
	// Keys are the keys the node will own after re-add, in input order.
	Keys []string
}

// PlanRejoin is the inverse of PlanRecache: for the given key
// population, which keys will joining own once it is re-added with its
// virtual points. The ring is not modified — the caller warms the
// node's cache from the keys' current owners first, then commits with
// Add, so readers never route to the rejoining node before its data is
// in place.
//
// Consistent hashing makes this exact: the points a node contributes
// are a pure function of (node, vnodes), so the planned ownership
// is bit-identical to what Add will install. If joining is already a
// member the plan is empty — unlike PlanRecache's panic, because rejoin
// races benignly (a double-revive must be a no-op, not a crash).
func (r *Ring) PlanRejoin(joining NodeID, keys []string) RejoinPlan {
	cur := r.snap.Load()
	plan := RejoinPlan{Joining: joining}
	if _, ok := cur.member[joining]; ok {
		return plan
	}
	add := make([]point, 0, r.cfg.VirtualNodes)
	for _, h := range pointsFor(joining, r.cfg.VirtualNodes) {
		add = append(add, point{hash: h, node: joining})
	}
	sortPoints(add)
	after := mergePoints(cur.points, add)
	for _, k := range keys {
		if owner, ok := ownerOf(after, keyHash(k)); ok && owner == joining {
			plan.Keys = append(plan.Keys, k)
		}
	}
	m := metrics()
	m.plans.Inc()
	m.keysMoved.Add(int64(len(plan.Keys)))
	telemetry.TraceEvent(telemetry.EventRecachePlanned, string(joining), "rejoin", int64(len(plan.Keys)))
	return plan
}
