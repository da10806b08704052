// Switchable routing: the adaptive strategy family.
//
// The three paper strategies differ in two independent axes: *placement*
// (static modulo vs consistent-hash ring) and *failure response* (abort
// vs PFS redirect vs ring recache). Switching between different
// placements at runtime would remap nearly the whole key space — a
// recache storm per switch — so the adaptive family pins placement to
// the consistent-hash ring and varies only the failure response:
//
//   - RingNoFT    — ring owner; any declared failure aborts (escape
//     hatch: see Switchable.Route).
//   - RingPFS     — ring owner computed over the ORIGINAL membership
//     (the ring never shrinks); a failed owner's reads go to the PFS.
//   - RingRecache — the paper's FT w/ NVMe, unchanged: live ring,
//     failures recache onto clockwise successors.
//
// With identical vnode configuration all three agree bit-for-bit on
// healthy-state ownership, so a switch moves zero keys while the fleet
// is healthy and only changes what happens to a failed node's arcs.
//
// Switchable is the atomically-swapped snapshot the ftpolicy controller
// drives: Route is one atomic pointer load plus the active strategy's
// own (lock-free or RLock-cheap) lookup, mirroring the copy-on-write
// ring. Failure/recovery evidence fans out to EVERY member strategy, so
// each one's world view is always current and a switch is a pure
// pointer swap — no rebuild, no torn state, no catch-up phase.
package ftcache

import (
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/hashring"
	"repro/internal/hvac"
	"repro/internal/telemetry"
)

// KindAdaptive selects the Switchable router: the ring-placement
// strategy family under live policy control.
const KindAdaptive StrategyKind = "adaptive"

// RingStatic routes on a consistent-hash ring over the original
// membership — the ring is never modified after construction, so
// placement is static like the paper's modulo strategies but agrees
// with RingRecache's healthy-state ownership. A failed owner's reads
// get the configured fallback decision: RoutePFS gives the adaptive
// ftpfs mode, RouteAbort the adaptive noft mode.
type RingStatic struct {
	ring    *hashring.Ring
	name    string
	onFail  hvac.DecisionKind
	mu      sync.RWMutex
	failed  map[cluster.NodeID]bool
	aborted atomic.Bool // noft mode: any failure is fatal
}

// NewRingPFS creates the adaptive ftpfs mode: static ring placement,
// failed owners redirected to the PFS.
func NewRingPFS(nodes []cluster.NodeID, virtualNodes int) *RingStatic {
	return &RingStatic{
		ring:   hashring.NewWithNodes(hashring.Config{VirtualNodes: virtualNodes}, nodes),
		name:   "FT w/ PFS (ring)",
		onFail: hvac.RoutePFS,
		failed: make(map[cluster.NodeID]bool),
	}
}

// NewRingNoFT creates the adaptive noft mode: static ring placement,
// any declared failure aborts the job (the Switchable escape hatch
// converts the abort into a strategy switch instead).
func NewRingNoFT(nodes []cluster.NodeID, virtualNodes int) *RingStatic {
	return &RingStatic{
		ring:   hashring.NewWithNodes(hashring.Config{VirtualNodes: virtualNodes}, nodes),
		name:   "NoFT (ring)",
		onFail: hvac.RouteAbort,
		failed: make(map[cluster.NodeID]bool),
	}
}

// Name implements hvac.Router.
func (r *RingStatic) Name() string { return r.name }

// Route implements hvac.Router: the static ring owner, or the
// configured fallback when the owner (or, in noft mode, anything) has
// failed.
func (r *RingStatic) Route(path string) hvac.Decision {
	if r.onFail == hvac.RouteAbort && r.aborted.Load() {
		return hvac.Decision{Kind: hvac.RouteAbort}
	}
	owner, ok := r.ring.Owner(path)
	if !ok {
		return hvac.Decision{Kind: hvac.RoutePFS}
	}
	r.mu.RLock()
	dead := r.failed[owner]
	r.mu.RUnlock()
	if dead {
		return hvac.Decision{Kind: r.onFail}
	}
	return hvac.Decision{Kind: hvac.RouteNode, Node: owner}
}

// NodeFailed implements hvac.Router.
func (r *RingStatic) NodeFailed(node cluster.NodeID) {
	r.mu.Lock()
	r.failed[node] = true
	r.mu.Unlock()
	if r.onFail == hvac.RouteAbort {
		r.aborted.Store(true)
	}
}

// NodeRecovered implements hvac.RecoveryAware. Recovery clears the
// noft abort too: under the adaptive controller the job is not dead,
// the strategy just stops being viable until the fleet heals.
func (r *RingStatic) NodeRecovered(node cluster.NodeID) {
	r.mu.Lock()
	delete(r.failed, node)
	healthy := len(r.failed) == 0
	r.mu.Unlock()
	if healthy {
		r.aborted.Store(false)
	}
}

// FailedCount returns the number of members currently marked failed.
func (r *RingStatic) FailedCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.failed)
}

// switchState is the atomically-published active-strategy snapshot.
type switchState struct {
	kind   StrategyKind
	router hvac.Router
}

// Switchable multiplexes the adaptive strategy family behind a single
// hvac.Router whose active member is swapped atomically at runtime.
//
// Invariants:
//   - Route/Replicas/PlanRejoin/PlanRecache observe exactly one
//     member's answer per call (one atomic load — never a torn mix of
//     two strategies).
//   - NodeFailed/NodeRecovered fan out to every member, active or not,
//     so switching never has to reconcile missed evidence.
//   - A RouteAbort from the active member (noft mode after a failure)
//     triggers an automatic escape switch and re-route, so adaptive
//     jobs never observe hvac.ErrAborted.
type Switchable struct {
	active   atomic.Pointer[switchState]
	members  map[StrategyKind]hvac.Router
	escape   StrategyKind
	switches atomic.Int64

	// onSwitch, when set, observes every committed switch (including
	// escape switches) — the ftpolicy controller's decision-log hook.
	onSwitch atomic.Pointer[func(from, to StrategyKind, auto bool)]
}

// NewSwitchable builds the adaptive family over the original
// membership. start selects the initially active member (empty =
// KindNVMe); virtualNodes <= 0 selects the paper's 100.
func NewSwitchable(nodes []cluster.NodeID, virtualNodes int, start StrategyKind) *Switchable {
	s := &Switchable{
		members: map[StrategyKind]hvac.Router{
			KindNoFT: NewRingNoFT(nodes, virtualNodes),
			KindPFS:  NewRingPFS(nodes, virtualNodes),
			KindNVMe: NewRingRecache(nodes, virtualNodes),
		},
		escape: KindNVMe,
	}
	if start == "" || s.members[start] == nil {
		start = KindNVMe
	}
	s.active.Store(&switchState{kind: start, router: s.members[start]})
	return s
}

// Name implements hvac.Router: the active member's name, tagged as
// adaptive.
func (s *Switchable) Name() string {
	return "Adaptive [" + s.active.Load().router.Name() + "]"
}

// Kind returns the active strategy.
func (s *Switchable) Kind() StrategyKind { return s.active.Load().kind }

// Switches returns the cumulative number of committed switches.
func (s *Switchable) Switches() int64 { return s.switches.Load() }

// Member exposes a family member (tests and warm planning).
func (s *Switchable) Member(kind StrategyKind) hvac.Router { return s.members[kind] }

// OnSwitch registers the single switch observer (latest wins).
func (s *Switchable) OnSwitch(fn func(from, to StrategyKind, auto bool)) {
	s.onSwitch.Store(&fn)
}

// SwitchTo makes kind the active strategy. Returns the previously
// active kind and whether a swap happened (false when kind is unknown
// or already active). The swap is a single pointer store: requests
// routed before it use the old member, requests after it the new one,
// and both members are evidence-current, so no request observes an
// inconsistent world.
func (s *Switchable) SwitchTo(kind StrategyKind) (StrategyKind, bool) {
	return s.switchTo(kind, false)
}

func (s *Switchable) switchTo(kind StrategyKind, auto bool) (StrategyKind, bool) {
	next, ok := s.members[kind]
	if !ok {
		return s.active.Load().kind, false
	}
	for {
		cur := s.active.Load()
		if cur.kind == kind {
			return cur.kind, false
		}
		if s.active.CompareAndSwap(cur, &switchState{kind: kind, router: next}) {
			s.switches.Add(1)
			if fn := s.onSwitch.Load(); fn != nil {
				(*fn)(cur.kind, kind, auto)
			}
			telemetry.TraceEvent(telemetry.EventPolicySwitch, "", string(cur.kind)+"->"+string(kind), s.switches.Load())
			return cur.kind, true
		}
	}
}

// Route implements hvac.Router: one atomic pointer load, then the
// active member's own lookup.
//
// The noft escape hatch lives here: if the active member answers
// RouteAbort (ring noft after a declared failure), Switchable commits
// an automatic switch to the escape strategy and re-routes through it.
// Every member is already evidence-current, so the re-route is correct
// immediately.
//
//ftc:hotpath
func (s *Switchable) Route(path string) hvac.Decision {
	st := s.active.Load()
	d := st.router.Route(path)
	if d.Kind != hvac.RouteAbort {
		return d
	}
	// Escape: adaptive jobs must survive what a static NoFT run would
	// die of. switchTo is idempotent under races — exactly one caller
	// commits the swap, the rest observe it.
	//ftclint:ignore hotpathlock the escape switch fires once per declared failure, never on the steady-state route; its trace emit is off the hot path
	s.switchTo(s.escape, true)
	return s.active.Load().router.Route(path)
}

// NodeFailed implements hvac.Router: evidence fans out to every member.
func (s *Switchable) NodeFailed(node cluster.NodeID) {
	for _, r := range s.members {
		r.NodeFailed(node)
	}
}

// NodeRecovered implements hvac.RecoveryAware: recovery fans out to
// every member.
func (s *Switchable) NodeRecovered(node cluster.NodeID) {
	for _, r := range s.members {
		if ra, ok := r.(hvac.RecoveryAware); ok {
			ra.NodeRecovered(node)
		}
	}
}

// Replicas implements hvac.Replicator. Fan-out always consults the
// live ring (the recache member): its Owners are live nodes in ring
// order, and in the healthy state they coincide with every member's
// static owners, so replica placement is stable across switches.
func (s *Switchable) Replicas(path string, n int) []cluster.NodeID {
	return s.members[KindNVMe].(*RingRecache).Replicas(path, n)
}

// PlanRejoin implements hvac.RejoinPlanner via the live ring: the keys
// the node owns once re-added — the same set every member routes to it
// while healthy.
func (s *Switchable) PlanRejoin(node cluster.NodeID, keys []string) []string {
	return s.members[KindNVMe].(*RingRecache).PlanRejoin(node, keys)
}

// PlanRecache implements hvac.RecachePlanner, but only while the ring
// member is the active strategy: under ftpfs or noft a failed owner's
// reads go to the PFS (or abort), no survivor inherits them, and a
// prefetch would fill caches nothing routes to.
func (s *Switchable) PlanRecache(failed cluster.NodeID, keys []string) map[cluster.NodeID][]string {
	if st := s.active.Load(); st.kind == KindNVMe {
		return st.router.(*RingRecache).PlanRecache(failed, keys)
	}
	return nil
}

var (
	_ hvac.Router         = (*RingStatic)(nil)
	_ hvac.RecoveryAware  = (*RingStatic)(nil)
	_ hvac.Router         = (*Switchable)(nil)
	_ hvac.RecoveryAware  = (*Switchable)(nil)
	_ hvac.Replicator     = (*Switchable)(nil)
	_ hvac.RejoinPlanner  = (*Switchable)(nil)
	_ hvac.RecachePlanner = (*Switchable)(nil)
)
