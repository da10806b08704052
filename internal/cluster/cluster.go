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
	"sort"
	"sync"
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

var (
	detMetricsOnce sync.Once
	detMetricsInst *detectorMetrics
)

func detMetrics() *detectorMetrics {
	detMetricsOnce.Do(func() {
		reg := telemetry.Default()
		detMetricsInst = &detectorMetrics{
			suspected:     reg.Counter("ftc_detect_suspected_total"),
			declared:      reg.Counter("ftc_detect_declared_dead_total"),
			resets:        reg.Counter("ftc_detect_suspect_resets_total"),
			suspectToDead: reg.Histogram("ftc_detect_suspect_to_dead_seconds"),
		}
	})
	return detMetricsInst
}

// NodeID aliases the cluster-wide node identifier.
type NodeID = hashring.NodeID

// DefaultTimeoutLimit mirrors the artifact's TIMEOUT_LIMIT knob: the
// number of consecutive RPC timeouts after which a node is declared
// failed.
const DefaultTimeoutLimit = 3

// Status describes a tracked node.
type Status uint8

// Node statuses.
const (
	// Alive is a node with no outstanding suspicion.
	Alive Status = iota
	// Suspect is a node with 1..limit-1 consecutive timeouts.
	Suspect
	// Failed is a node past the timeout threshold.
	Failed
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Failed:
		return "failed"
	default:
		return "unknown"
	}
}

// Tracker is a goroutine-safe failure detector over a fixed initial
// membership. Failure listeners fire exactly once per node, outside the
// tracker lock, in declaration order.
type Tracker struct {
	limit int

	mu        sync.Mutex
	counts    map[NodeID]int
	failed    map[NodeID]bool
	suspectAt map[NodeID]time.Time // first-timeout instant, while suspect
	members   []NodeID             // sorted, fixed at construction
	memberSet map[NodeID]bool
	listeners []func(NodeID)
	// recovery listeners fire when a failed node is explicitly revived
	// (elastic scale-up; never triggered by late responses).
	recoveryListeners []func(NodeID)
}

// NewTracker creates a Tracker over nodes. limit <= 0 selects
// DefaultTimeoutLimit.
func NewTracker(nodes []NodeID, limit int) *Tracker {
	if limit <= 0 {
		limit = DefaultTimeoutLimit
	}
	t := &Tracker{
		limit:     limit,
		counts:    make(map[NodeID]int, len(nodes)),
		failed:    make(map[NodeID]bool),
		suspectAt: make(map[NodeID]time.Time),
		memberSet: make(map[NodeID]bool, len(nodes)),
	}
	t.members = append(t.members, nodes...)
	sort.Slice(t.members, func(i, j int) bool { return t.members[i] < t.members[j] })
	for _, n := range t.members {
		t.memberSet[n] = true
	}
	return t
}

// Limit returns the configured timeout threshold.
func (t *Tracker) Limit() int { return t.limit }

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
	if !t.memberSet[node] || t.failed[node] {
		t.mu.Unlock()
		return false
	}
	t.counts[node]++
	count := t.counts[node]
	suspected := count == 1
	if suspected {
		t.suspectAt[node] = now
	}
	if count < t.limit {
		t.mu.Unlock()
		if suspected {
			detMetrics().suspected.Inc()
			telemetry.TraceEvent(telemetry.EventNodeSuspected, string(node), "timeout", int64(count))
		}
		return false
	}
	t.failed[node] = true
	firstTimeout := t.suspectAt[node]
	delete(t.suspectAt, node)
	listeners := append(make([]func(NodeID), 0, len(t.listeners)), t.listeners...)
	t.mu.Unlock()
	m := detMetrics()
	if suspected {
		// limit == 1: the same timeout both suspects and declares.
		m.suspected.Inc()
		telemetry.TraceEvent(telemetry.EventNodeSuspected, string(node), "timeout", int64(count))
	}
	latency := now.Sub(firstTimeout)
	m.declared.Inc()
	m.suspectToDead.Observe(int64(latency))
	telemetry.TraceEvent(telemetry.EventNodeDead, string(node), "timeout-limit", int64(latency))
	for _, fn := range listeners {
		fn(node)
	}
	return true
}

// RecordSuccess resets node's timeout counter: a transient delay followed
// by a response must not accumulate toward failure. Successes from
// already-failed nodes are ignored — the paper's design never resurrects
// a node mid-job (a rejoin arrives via elastic restart instead).
func (t *Tracker) RecordSuccess(node NodeID) {
	t.mu.Lock()
	wasSuspect := t.counts[node] > 0 && !t.failed[node]
	if !t.failed[node] {
		t.counts[node] = 0
		delete(t.suspectAt, node)
	}
	t.mu.Unlock()
	if wasSuspect {
		// A transient delay survived: the detection timer ran but did
		// not fire — the false-positive-mitigation outcome.
		detMetrics().resets.Inc()
	}
}

// OnRecovery registers fn to be called when a failed node is revived via
// Revive. Like failure listeners, recovery listeners run outside the
// tracker lock.
func (t *Tracker) OnRecovery(fn func(NodeID)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recoveryListeners = append(t.recoveryListeners, fn)
}

// Revive re-admits a previously failed member: elastic scale-up after
// the scheduler hands the job a replacement (or repaired) node. This is
// an explicit administrative action — unlike RecordSuccess, which never
// resurrects, because a single late packet must not undo a declaration.
// Returns true if the node transitioned back to Alive.
func (t *Tracker) Revive(node NodeID) bool {
	t.mu.Lock()
	if !t.memberSet[node] || !t.failed[node] {
		t.mu.Unlock()
		return false
	}
	delete(t.failed, node)
	t.counts[node] = 0
	delete(t.suspectAt, node)
	listeners := append(make([]func(NodeID), 0, len(t.recoveryListeners)), t.recoveryListeners...)
	t.mu.Unlock()
	telemetry.TraceEvent(telemetry.EventNodeRevived, string(node), "", 0)
	for _, fn := range listeners {
		fn(node)
	}
	return true
}

// statusOf returns node's current status; unknown nodes report Failed so
// callers never route to them.
func (t *Tracker) statusOf(node NodeID) Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case !t.memberSet[node] || t.failed[node]:
		return Failed
	case t.counts[node] > 0:
		return Suspect
	default:
		return Alive
	}
}

// IsAlive reports whether node is a member not declared failed
// (Suspect counts as alive — it still receives traffic).
func (t *Tracker) IsAlive(node NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.memberSet[node] && !t.failed[node]
}

// Alive returns the live members in sorted order.
func (t *Tracker) Alive() []NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]NodeID, 0, len(t.members))
	for _, n := range t.members {
		if !t.failed[n] {
			out = append(out, n)
		}
	}
	return out
}

// FailedNodes returns the declared-failed members in sorted order.
func (t *Tracker) FailedNodes() []NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]NodeID, 0, len(t.failed))
	for _, n := range t.members {
		if t.failed[n] {
			out = append(out, n)
		}
	}
	return out
}

// timeoutCount returns node's current consecutive-timeout count.
func (t *Tracker) timeoutCount(node NodeID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[node]
}
