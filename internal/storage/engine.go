package storage

import (
	"container/heap"
	"runtime"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// The completion engine makes a modelled wait cost what it says.
//
// Sleeping on the runtime timer cannot: when every P is idle the Go
// runtime parks in epoll_wait, whose timeout is whole milliseconds
// (netpoll rounds any delay under 1 ms up to 1), so on Linux a sleep of
// 50 µs, of 100 µs and of 500 µs all return after ≈ 1.1 ms — an NVMe
// read modelled at 100 µs and a PFS read modelled at 500 µs become the
// same device.
//
// Instead every waiter in the process — a Device read, a chaos link
// delay, a trainer's compute step — parks on its own channel with a
// completion instant, and one goroutine hands the completions out in
// deadline order. It yields (runtime.Gosched) against the monotonic
// clock rather than sleeping, so a due waiter is woken within one
// scheduler round instead of one timer floor; only when the nearest
// completion is at least napHorizon away does it nap on a runtime
// timer, and then for napSlack less than the distance. The goroutine
// exists only while someone waits: it exits when the queue empties and
// the next waiter starts a fresh one, so an idle process runs nothing
// and a closed cluster leaks nothing.
//
// The waiters block for real on purpose. Coalescing, admission and
// hedging above the devices react to reads that genuinely overlap;
// adding modelled nanoseconds to a reply would give them nothing to see.

// napSlack is how far before a completion a nap must end. Measured on
// linux/amd64, go1.24, in an otherwise idle process: a timer set for
// 50 µs–2 ms fires up to 1.1 ms late at the median and 1.4 ms at p99
// (EXPERIMENTS.md "Timer note"), so 2 ms leaves the engine back on the
// clock before anything is due.
const napSlack = 2 * time.Millisecond

// napHorizon is the nearest completion the engine will nap towards; any
// closer and it yields instead.
const napHorizon = napSlack + time.Millisecond

// clockZero anchors the engine's clock: instants are monotonic
// nanoseconds since it, which costs one vDSO read and no wall-clock
// decoding.
var clockZero = time.Now()

func now() int64 { return int64(time.Since(clockZero)) }

// waiter is one parked caller. Waiters are pooled with their channel,
// so a steady-state wait allocates nothing.
type waiter struct {
	due  int64
	done chan struct{} // cap 1: the engine's send never blocks
}

var waiters = sync.Pool{New: func() any { return &waiter{done: make(chan struct{}, 1)} }}

// dueOrder is a min-heap of waiters by completion instant.
type dueOrder []*waiter

func (q dueOrder) Len() int           { return len(q) }
func (q dueOrder) Less(i, j int) bool { return q[i].due < q[j].due }
func (q dueOrder) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *dueOrder) Push(x any)        { *q = append(*q, x.(*waiter)) }
func (q *dueOrder) Pop() any {
	old := *q
	w := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return w
}

// engine is the process-wide completion queue: one, so that however
// many devices are waited on, one goroutine watches the clock.
var engine struct {
	mu      sync.Mutex
	pending dueOrder
	running bool          // the goroutine exists
	napping bool          // it is parked on a timer; an arrival must poke it
	poke    chan struct{} // cap 1
}

var (
	// waitOvershoot is completion instant − due instant per wait: the
	// engine knows both at wake-up, so the series costs no clock read.
	waitOvershoot = telemetry.Default().Histogram("ftc_device_wait_overshoot_ns")
	// engineBusy is the time the engine goroutine spent runnable
	// (yielding, not napping): the CPU the accuracy is bought with.
	engineBusy = telemetry.Default().Counter("ftc_device_engine_busy_ns_total")
)

func init() {
	engine.poke = make(chan struct{}, 1)
	telemetry.Default().RegisterDebug("device", func() any {
		o := waitOvershoot.Snapshot()
		return map[string]any{
			"waits":            o.Count,
			"overshoot_p50_ns": o.Quantile(0.5),
			"overshoot_p99_ns": o.Quantile(0.99),
			"engine_busy_ns":   engineBusy.Load(),
		}
	})
}

// Wait blocks the caller for d, to the accuracy of the engine rather
// than of the runtime timer. d <= 0 returns at once.
func Wait(d time.Duration) {
	if d > 0 {
		waitUntil(now() + int64(d))
	}
}

// waitUntil parks the caller until the engine's clock reaches due.
func waitUntil(due int64) {
	w := waiters.Get().(*waiter)
	w.due = due
	e := &engine
	e.mu.Lock()
	heap.Push(&e.pending, w)
	start, poke := !e.running, e.napping
	e.running = true
	e.mu.Unlock()
	if start {
		go run()
	} else if poke {
		select {
		case e.poke <- struct{}{}:
		default: // already poked
		}
	}
	<-w.done
	waiters.Put(w)
}

// run is the engine goroutine: wake what is due, then yield or nap
// until the next completion, and exit once nobody waits.
func run() {
	e := &engine
	busyFrom := now()
	for {
		e.mu.Lock()
		t := now()
		if len(e.pending) == 0 {
			e.running = false
			e.mu.Unlock()
			engineBusy.Add(t - busyFrom)
			return
		}
		ahead := e.pending[0].due - t
		if ahead <= 0 {
			w := heap.Pop(&e.pending).(*waiter)
			e.mu.Unlock()
			waitOvershoot.Observe(-ahead)
			w.done <- struct{}{}
			continue
		}
		if ahead < int64(napHorizon) {
			e.mu.Unlock()
			runtime.Gosched()
			continue
		}
		e.napping = true
		e.mu.Unlock()
		engineBusy.Add(t - busyFrom)
		nap := time.NewTimer(time.Duration(ahead) - napSlack)
		select {
		case <-nap.C:
		case <-e.poke: // an arrival may be due sooner
			nap.Stop()
		}
		busyFrom = now()
		e.mu.Lock()
		e.napping = false
		e.mu.Unlock()
	}
}
