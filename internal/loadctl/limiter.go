package loadctl

import (
	"sync/atomic"
	"time"
)

// DefaultAdmissionWait bounds how long a queued request waits for a
// service slot before being shed. It is deliberately short: the point
// of shedding is to convert queueing delay the client cannot see into
// an explicit overload signal the client can act on (redirect to a
// replica or the PFS) — a long queue would just be invisible latency.
const DefaultAdmissionWait = 2 * time.Millisecond

// Limiter is the server-side admission controller: at most `limit`
// requests are served concurrently, at most `queue` more may wait (for
// up to maxWait) for a slot, and everything beyond that is shed
// immediately. Shed requests get an explicit overload status on the
// wire — never a silent timeout — so the client learns "alive but
// busy", which is routing information, not failure evidence.
type Limiter struct {
	tokens  chan struct{} // service slots
	waiters chan struct{} // queue slots
	maxWait time.Duration

	// soft, when in (0, cap(tokens)), tightens the effective concurrency
	// limit at runtime (adaptive policy knob): a request arriving while
	// held slots >= soft is shed immediately. The check is a lock-free
	// length read, so enforcement is approximate — concurrent arrivals
	// can overshoot by their own count, bounded by cap(tokens). 0 = use
	// the constructed hard limit. The hard channel capacity never moves,
	// so in-flight holders and ReleaseN accounting are unaffected.
	soft atomic.Int64

	admitted atomic.Int64
	queued   atomic.Int64
	shed     atomic.Int64
}

// NewLimiter creates a limiter with `limit` concurrent service slots
// and a `queue`-deep wait line bounded by maxWait. limit <= 0 returns
// nil — the "admission control disabled" sentinel callers check for.
// queue < 0 selects limit; maxWait <= 0 selects DefaultAdmissionWait.
func NewLimiter(limit, queue int, maxWait time.Duration) *Limiter {
	if limit <= 0 {
		return nil
	}
	if queue < 0 {
		queue = limit
	}
	if maxWait <= 0 {
		maxWait = DefaultAdmissionWait
	}
	return &Limiter{
		tokens:  make(chan struct{}, limit),
		waiters: make(chan struct{}, queue),
		maxWait: maxWait,
	}
}

// Acquire claims a service slot, waiting in the bounded queue if the
// server is at its concurrency limit. It returns false when the request
// should be shed: the queue is full, or no slot freed within maxWait.
// Every true return must be paired with a Release.
func (l *Limiter) Acquire() bool {
	ok, _ := l.AcquireWait()
	return ok
}

// AcquireWait is Acquire plus the admission-queue wait it cost: zero on
// the uncontended fast path (measured without a clock read — request
// tracing must not tax the path it observes), the measured queueing
// delay when the request had to line up. The wait is reported on shed
// requests too (how long the request was held before being turned
// away).
func (l *Limiter) AcquireWait() (bool, time.Duration) {
	switch l.TryAcquire() {
	case Admitted:
		return true, 0
	case Shed:
		return false, 0
	}
	return l.AwaitSlot()
}

// Admission is what TryAcquire decided.
type Admission uint8

const (
	// Admitted: a service slot is held; pair it with a Release.
	Admitted Admission = iota
	// Shed: turn the request away now.
	Shed
	// Queued: a place in the wait line is held; finish with AwaitSlot.
	Queued
)

// TryAcquire is the half of AcquireWait that never blocks: it claims a
// free service slot, sheds, or takes a place in the wait line — the
// decision a server makes on the goroutine that read the request,
// leaving only the queue wait (AwaitSlot) to one that may block.
func (l *Limiter) TryAcquire() Admission {
	if l.overSoft() {
		l.shed.Add(1)
		return Shed
	}
	select {
	case l.tokens <- struct{}{}:
		l.admitted.Add(1)
		return Admitted
	default:
	}
	select {
	case l.waiters <- struct{}{}:
		l.queued.Add(1)
		return Queued
	default:
		l.shed.Add(1)
		return Shed
	}
}

// AwaitSlot is the waiting half of AcquireWait, for a request
// TryAcquire queued: it waits up to maxWait for a service slot, gives
// up the place in line either way, and reports the wait. A true return
// must be paired with a Release.
func (l *Limiter) AwaitSlot() (bool, time.Duration) {
	t0 := time.Now()
	t := time.NewTimer(l.maxWait)
	defer t.Stop()
	select {
	case l.tokens <- struct{}{}:
		<-l.waiters
		l.admitted.Add(1)
		return true, time.Since(t0)
	case <-t.C:
		<-l.waiters
		l.shed.Add(1)
		return false, time.Since(t0)
	}
}

// Release returns a service slot claimed by a successful Acquire.
func (l *Limiter) Release() { <-l.tokens }

// AcquireN claims cost service slots for one batched request, so
// admission sees ingest cost in objects, not in frames — a 100-entry
// batch competes for capacity like 100 requests, not like one. cost is
// capped at the limiter's width (a batch larger than the whole limit
// must still be admissible). Slots free right now are taken greedily;
// the remainder is waited for up to maxWait in one queue slot. On
// timeout every held slot is returned and the whole batch is shed —
// holding a partial claim forever could deadlock two interleaved
// batches, while timed release merely sheds both under real overload.
// Every true return must be paired with ReleaseN(cost) for the same
// cost.
func (l *Limiter) AcquireN(cost int) bool {
	ok, _ := l.AcquireNWait(cost)
	return ok
}

// AcquireNWait is AcquireN plus the admission-queue wait it cost, with
// the same zero-on-fast-path contract as AcquireWait.
func (l *Limiter) AcquireNWait(cost int) (bool, time.Duration) {
	if cost <= 1 {
		return l.AcquireWait()
	}
	if l.overSoft() {
		l.shed.Add(1)
		return false, 0
	}
	if cap := cap(l.tokens); cost > cap {
		cost = cap
	}
	held := 0
	for ; held < cost; held++ {
		select {
		case l.tokens <- struct{}{}:
		default:
			goto wait
		}
	}
	l.admitted.Add(1)
	return true, 0

wait:
	select {
	case l.waiters <- struct{}{}:
	default:
		l.releaseHeld(held)
		l.shed.Add(1)
		return false, 0
	}
	l.queued.Add(1)
	{
		t0 := time.Now()
		t := time.NewTimer(l.maxWait)
		defer t.Stop()
		for held < cost {
			select {
			case l.tokens <- struct{}{}:
				held++
			case <-t.C:
				<-l.waiters
				l.releaseHeld(held)
				l.shed.Add(1)
				return false, time.Since(t0)
			}
		}
		<-l.waiters
		l.admitted.Add(1)
		return true, time.Since(t0)
	}
}

// ReleaseN returns the slots claimed by a successful AcquireN. cost
// must match the AcquireN argument (after its internal cap, applied
// here identically).
func (l *Limiter) ReleaseN(cost int) {
	if cost <= 1 {
		l.Release()
		return
	}
	if cap := cap(l.tokens); cost > cap {
		cost = cap
	}
	l.releaseHeld(cost)
}

func (l *Limiter) releaseHeld(n int) {
	for i := 0; i < n; i++ {
		<-l.tokens
	}
}

// overSoft reports whether the runtime soft limit is set and currently
// breached.
func (l *Limiter) overSoft() bool {
	s := l.soft.Load()
	return s > 0 && int64(len(l.tokens)) >= s
}

// SetLimit tightens (or restores) the effective concurrency limit at
// runtime — the adaptive policy's admission knob. n in (0, hard limit)
// sheds arrivals beyond n held slots; n <= 0 or >= the hard limit
// restores the constructed behavior. Enforcement is approximate (see
// the soft field); the hard limit remains the absolute bound.
func (l *Limiter) SetLimit(n int) {
	if n <= 0 || n >= cap(l.tokens) {
		l.soft.Store(0)
		return
	}
	l.soft.Store(int64(n))
}

// Limit returns the effective concurrency limit (soft if set, else the
// constructed hard limit).
func (l *Limiter) Limit() int {
	if s := l.soft.Load(); s > 0 {
		return int(s)
	}
	return cap(l.tokens)
}

// Inflight returns the number of currently held service slots.
func (l *Limiter) Inflight() int64 { return int64(len(l.tokens)) }

// Stats returns cumulative admission counters.
func (l *Limiter) Stats() (admitted, queued, shed int64) {
	return l.admitted.Load(), l.queued.Load(), l.shed.Load()
}

// Sheds returns the cumulative shed count (telemetry callback).
func (l *Limiter) Sheds() int64 { return l.shed.Load() }
