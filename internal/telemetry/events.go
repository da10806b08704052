package telemetry

import (
	"sync"
	"time"
)

// EventType enumerates the structured fault-tolerance events the stack
// emits. The live failure sequence a client drives is, in order:
// node-suspected (first timeout) → node-declared-dead (threshold) →
// recache-planned + ring-membership-change (router plans, then drops the
// node) → pfs-fallback / recache-file-done (new owners prefetch their
// share) → recache-complete (one per receiver, when its queue drains).
type EventType uint8

// Event types.
const (
	// EventNodeSuspected: a node accumulated its first timeout evidence.
	EventNodeSuspected EventType = iota
	// EventNodeDead: the detector crossed TIMEOUT_LIMIT and declared the
	// node failed. Value carries the suspect→dead latency in ns.
	EventNodeDead
	// EventRingChange: a node joined or left the hash ring. Detail is
	// "add" or "remove"; Value is the member count after the change.
	EventRingChange
	// EventRecachePlanned: a RecachePlan or RejoinPlan was computed over
	// a key population — on the live path, the plan a client ships to the
	// receivers when it declares a node failed. Node is the failed (or
	// joining) node, Detail "plan" or "rejoin", Value the keys moved.
	EventRecachePlanned
	// EventRecacheFileDone: a cache fill landed on NVMe (the elastic
	// recache action; also fires for first-touch fills). Detail is the
	// path, Value the object size.
	EventRecacheFileDone
	// EventPFSFallback: a server miss was served from the PFS. Detail is
	// the path.
	EventPFSFallback
	// EventNodeRevived: a failed node was re-admitted (elastic
	// scale-up).
	EventNodeRevived
	// EventHotKey: the load-control sketch flagged a key hot and its
	// replica fan-out was issued. Detail is the path, Value the object
	// size being pushed.
	EventHotKey
	// EventNodeRejoined: a revived node completed the full rejoin path —
	// probes passed, NVMe warmed, ring re-add committed. Detail is the
	// node, Value the warmed byte count.
	EventNodeRejoined
	// EventPolicySwitch: the adaptive controller (or the noft escape
	// hatch) swapped the active fault-tolerance strategy. Detail is
	// "from->to", Value the cumulative switch count.
	EventPolicySwitch
	// EventRecacheComplete: a receiver finished prefetching what it
	// inherited from a failed node — its recache queue for that node
	// drained (Fig 6(a) "time to recache"). Node is the receiver, Detail
	// "<failed node> files=<n> bytes=<n>" counting what the prefetch
	// made resident, Value the first-hint-to-drained duration in ns.
	EventRecacheComplete
)

// String implements fmt.Stringer with stable wire-friendly names.
func (t EventType) String() string {
	switch t {
	case EventNodeSuspected:
		return "node-suspected"
	case EventNodeDead:
		return "node-declared-dead"
	case EventRingChange:
		return "ring-membership-change"
	case EventRecachePlanned:
		return "recache-planned"
	case EventRecacheFileDone:
		return "recache-file-done"
	case EventPFSFallback:
		return "pfs-fallback"
	case EventNodeRevived:
		return "node-revived"
	case EventHotKey:
		return "hot-key-flagged"
	case EventNodeRejoined:
		return "node-rejoined"
	case EventPolicySwitch:
		return "policy-switch"
	case EventRecacheComplete:
		return "recache-complete"
	default:
		return "unknown"
	}
}

// Event is one traced occurrence. Seq increases monotonically from 1
// across the trace's lifetime, so consumers can order events and detect
// how many the bounded buffer dropped.
type Event struct {
	Seq    uint64
	Time   time.Time
	Type   EventType
	Node   string
	Detail string
	Value  int64
}

// DefaultTraceCapacity bounds the registry trace: large enough to hold
// every event of a multi-failure run's fault window, small enough to be
// a fixed memory cost.
const DefaultTraceCapacity = 1024

// EventTrace is a bounded ring buffer of events. Emission takes a
// short mutex — events fire on the failure/miss path, never on the
// cache-hit hot path, so a lock here cannot contend with steady-state
// reads.
type EventTrace struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever emitted
}

// NewEventTrace creates a trace retaining the last capacity events
// (non-positive selects DefaultTraceCapacity).
func NewEventTrace(capacity int) *EventTrace {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &EventTrace{buf: make([]Event, capacity)}
}

// Emit appends an event (no-op while telemetry is disabled).
func (t *EventTrace) Emit(typ EventType, node, detail string, value int64) {
	if !enabled.Load() {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.next++
	t.buf[(t.next-1)%uint64(len(t.buf))] = Event{
		Seq:    t.next,
		Time:   now,
		Type:   typ,
		Node:   node,
		Detail: detail,
		Value:  value,
	}
	t.mu.Unlock()
}

// Seq returns the sequence number of the most recently emitted event
// (0 before any). Record it before an action, then pass it to Since to
// read only the events that action produced.
func (t *EventTrace) Seq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Since returns retained events with Seq > seq, oldest first.
func (t *EventTrace) Since(seq uint64) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.copyLocked(seq, len(t.buf))
}

// Recent returns up to max retained events, oldest first.
func (t *EventTrace) Recent(max int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if max <= 0 || max > len(t.buf) {
		max = len(t.buf)
	}
	lo := uint64(0)
	if t.next > uint64(max) {
		lo = t.next - uint64(max)
	}
	return t.copyLocked(lo, max)
}

// copyLocked gathers retained events with Seq > seq (capped at max).
func (t *EventTrace) copyLocked(seq uint64, max int) []Event {
	cap64 := uint64(len(t.buf))
	lo := seq
	if t.next > cap64 && lo < t.next-cap64 {
		lo = t.next - cap64 // older entries were overwritten
	}
	n := int(t.next - lo)
	if n > max {
		lo = t.next - uint64(max)
		n = max
	}
	out := make([]Event, 0, n)
	for s := lo + 1; s <= t.next; s++ {
		out = append(out, t.buf[(s-1)%cap64])
	}
	return out
}
