// Package sim is a minimal discrete-event simulation engine: a virtual
// clock and an ordered event queue. The Frontier-scale training model
// (package trainsim) runs on it, interleaving step-barrier events with
// asynchronously scheduled failure injections exactly as wall-clock time
// would on the real machine — without sleeping.
//
// Events at equal timestamps fire in scheduling order (stable), which
// keeps simulations deterministic for a fixed seed.
package sim

import (
	"container/heap"
	"time"
)

// Event is a scheduled callback.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event executor. It is not
// goroutine-safe: all scheduling must happen from the initial setup or
// from within event callbacks.
type Engine struct {
	now    time.Duration
	seq    uint64
	events eventHeap
}

// New creates an engine at virtual time zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn at absolute virtual time t. Scheduling in the past
// (t < Now) panics: it is always a model bug.
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		panic("sim: scheduling into the past")
	}
	e.seq++
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn d after the current virtual time. Negative d panics.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now+d, fn)
}

// Step dispatches the single earliest event; returns false when the
// queue is empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	e.now = ev.at
	ev.fn()
	return true
}

// Run dispatches events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}
