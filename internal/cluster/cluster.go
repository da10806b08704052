// Package cluster implements per-client membership tracking and the
// timeout-based failure detector FT-Cache uses (paper §IV-A):
//
//	"Each HVAC client tracks active and faulty nodes, monitoring for
//	 timeouts on each request. Upon a timeout, the client increments a
//	 counter ... Once the timeout count for a specific node reaches a
//	 predefined threshold, that node is flagged as failed."
//
// The counter exists to absorb transient network delays (false-positive
// mitigation); a successful response resets it. Detection is purely
// local — no inter-node communication — which is exactly what lets every
// client converge on the same post-failure hash ring independently.
package cluster

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hashring"
	"repro/internal/telemetry"
)

// detectorMetrics aggregate detection observables across every Tracker
// in the process (one per client rank; they detect independently, and
// the paper's detection-latency claim is about the distribution).
type detectorMetrics struct {
	suspected     *telemetry.Counter   // Alive → Suspect transitions
	declared      *telemetry.Counter   // Suspect → Failed declarations
	resets        *telemetry.Counter   // suspicion cleared by a success
	suspectToDead *telemetry.Histogram // first timeout → declaration latency
}

var detMetrics = sync.OnceValue(func() *detectorMetrics {
	reg := telemetry.Default()
	return &detectorMetrics{
		suspected:     reg.Counter("ftc_detect_suspected_total"),
		declared:      reg.Counter("ftc_detect_declared_dead_total"),
		resets:        reg.Counter("ftc_detect_suspect_resets_total"),
		suspectToDead: reg.Histogram("ftc_detect_suspect_to_dead_seconds"),
	}
})

// NodeID aliases the cluster-wide node identifier.
type NodeID = hashring.NodeID

// DefaultTimeoutLimit mirrors the artifact's TIMEOUT_LIMIT knob: the
// consecutive RPC timeouts that declare a node failed.
const DefaultTimeoutLimit = 3

// Placement is what a membership decision reshapes: a client's router.
// Tracker calls it under its lock, so a drop and a re-add of one node
// apply in the order the membership decided them.
type Placement interface {
	NodeFailed(NodeID)
	NodeRecovered(NodeID)
}

// Tracker is one client's goroutine-safe failure detector: a Membership
// behind a mutex, the placement it reshapes, and listeners, which run
// outside the lock — failure ones once per declaration, in order,
// recovery ones on each Revive.
type Tracker struct {
	mu                           sync.Mutex
	m                            *Membership
	place                        Placement
	suspects                     atomic.Int32 // m.suspects, for RecordSuccess's lock-free path
	listeners, recoveryListeners []func(NodeID)
}

// NewTracker creates a Tracker over nodes (limit as in NewMembership).
func NewTracker(nodes []NodeID, limit int) *Tracker {
	return &Tracker{m: NewMembership(nodes, limit)}
}

// Limit returns the timeouts that declare a node, also the probe streak
// that lets it back.
func (t *Tracker) Limit() int { return t.m.limit }

// Place registers the placement Drop and Revive reshape.
func (t *Tracker) Place(p Placement) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.place = p
}

// OnFailure registers fn to be called when a node is declared failed.
// Listeners registered after a node already failed are NOT retroactively
// invoked; register before serving traffic.
func (t *Tracker) OnFailure(fn func(NodeID)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.listeners = append(t.listeners, fn)
}

// RecordTimeout notes one RPC timeout against node. It returns true when
// this call crossed the threshold and declared the node failed. Timeouts
// against unknown or already-failed nodes are ignored.
//
// Telemetry ordering guarantee: for a given declaration, the
// node-suspected event precedes node-declared-dead, which precedes the
// failure listeners (and therefore any ring-membership-change /
// recache-planned events they emit).
func (t *Tracker) RecordTimeout(node NodeID) bool {
	now := time.Now()
	t.mu.Lock()
	eff, count, latency := t.m.Timeout(node, now)
	t.suspects.Store(int32(t.m.suspects))
	listeners := slices.Clone(t.listeners) // a timeout is rare: clone without asking
	t.mu.Unlock()
	m := detMetrics()
	if count == 1 {
		m.suspected.Inc()
		telemetry.TraceEvent(telemetry.EventNodeSuspected, string(node), "timeout", int64(count))
	}
	if eff != Declare {
		return false
	}
	m.declared.Inc()
	m.suspectToDead.Observe(int64(latency))
	telemetry.TraceEvent(telemetry.EventNodeDead, string(node), "timeout-limit", int64(latency))
	for _, fn := range listeners {
		fn(node)
	}
	return true
}

// RecordSuccess resets node's timeout counter: a transient delay followed
// by a response must not accumulate toward failure. While no node is
// suspect it takes no lock. Successes from already-failed nodes are
// ignored — one late packet never resurrects a node (a rejoin does).
func (t *Tracker) RecordSuccess(node NodeID) {
	if t.suspects.Load() == 0 {
		return
	}
	t.mu.Lock()
	reset := t.m.Success(node)
	t.suspects.Store(int32(t.m.suspects))
	t.mu.Unlock()
	if reset { // a transient delay survived: false-positive mitigation
		detMetrics().resets.Inc()
	}
}

// Drop is Membership.Drop, the placement dropping the node under the lock.
func (t *Tracker) Drop(node NodeID, shares []int, stop func()) (gen uint32, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if gen, ok = t.m.Drop(node, shares, stop); ok && t.place != nil {
		t.place.NodeFailed(node)
	}
	return gen, ok
}

// NextHint, ProbeResult, BeginRejoin and AbortRejoin are Membership's,
// under the lock.
func (t *Tracker) NextHint(node NodeID, gen uint32, failed bool) (recv, chunk int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m.NextHint(node, gen, failed)
}

func (t *Tracker) ProbeResult(node NodeID, answered bool) Effect {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m.ProbeResult(node, answered)
}

func (t *Tracker) BeginRejoin(node NodeID) (Effect, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m.BeginRejoin(node)
}

func (t *Tracker) AbortRejoin(node NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m.AbortRejoin(node)
}

// OnRecovery registers fn to be called when a failed node is revived.
func (t *Tracker) OnRecovery(fn func(NodeID)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recoveryListeners = append(t.recoveryListeners, fn)
}

// Revive re-admits a failed member (elastic scale-up: a replacement or
// repaired node), an explicit action where RecordSuccess never
// resurrects. The placement takes it back under the lock, and a hint
// sender still shipping its shares is stopped. It reports whether the
// node was failed.
func (t *Tracker) Revive(node NodeID) bool {
	t.mu.Lock()
	ok, readd, stop := t.m.Revive(node)
	if readd && t.place != nil {
		t.place.NodeRecovered(node)
	}
	listeners := slices.Clone(t.recoveryListeners)
	t.mu.Unlock()
	if !ok {
		return false
	}
	if stop != nil {
		stop()
	}
	telemetry.TraceEvent(telemetry.EventNodeRevived, string(node), "", 0)
	for _, fn := range listeners {
		fn(node)
	}
	return true
}

// IsAlive reports whether node is a member not declared failed
// (Suspect counts as alive — it still receives traffic).
func (t *Tracker) IsAlive(node NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.m.at(node)
	return st != nil && st.phase < Failed
}

// Alive returns the live members in sorted order.
func (t *Tracker) Alive() []NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m.list(true)
}

// FailedNodes returns the declared-failed members in sorted order.
func (t *Tracker) FailedNodes() []NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m.list(false)
}
