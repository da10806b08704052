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
	// EventRecacheFileDone: a miss flight's PFS fetch landed on NVMe
	// (the elastic recache action, whether a hint's prefetch or a demand
	// miss led the flight). Puts and RAM demotions do not emit it.
	// Detail is the path, Value the object size.
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

// Emit appends an event.
func (t *EventTrace) Emit(typ EventType, node, detail string, value int64) {
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

// Recent returns up to max retained events, oldest first (max <= 0:
// every retained event). A caller that wants the events one action
// produced keeps the Seq of Recent(1)'s event from before the action
// and filters on Event.Seq.
func (t *EventTrace) Recent(max int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	cap64 := uint64(len(t.buf))
	n := min(t.next, cap64)
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]Event, 0, n)
	for s := t.next - n + 1; s <= t.next; s++ {
		out = append(out, t.buf[(s-1)%cap64])
	}
	return out
}
