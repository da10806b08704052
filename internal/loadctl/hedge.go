package loadctl

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// hedgeWarmup is the number of latency samples required before hedging
// activates: firing hedges off a handful of observations would chase
// noise, and the subsystem must cost nothing on a fresh client.
const hedgeWarmup = 64

// Hedge derives the hedged-read trigger delay from the streaming p99 of
// ordinary (non-hedged) read latency: if a hot-key read has taken
// longer than 99% of recent reads, the owner is presumed busy and a
// second request is raced against a replica. The delay is clamped to
// [hedgeMin, hedgeMax] so a pathologically tight p99 cannot turn every
// read into a double-send and a pathologically loose one cannot disable
// hedging.
//
// Only non-hedged successes feed the estimator — hedged reads complete
// near the hedge delay by construction, and folding them back in would
// ratchet the p99 (and with it the delay) steadily downward.
type Hedge struct {
	// tick samples Observe calls: only one in hedgeSample takes the
	// mutex, keeping the common-case cost of feeding the estimator to a
	// single atomic add on the read hot path.
	tick atomic.Uint64

	mu  sync.Mutex
	p99 *stats.P2Quantile
	n   int

	// cached is the current delay in ns, recomputed periodically under
	// the mutex and read lock-free on the read path. 0 = not ready.
	cached atomic.Int64
}

// hedgeSample is the Observe sampling rate: 1-in-4 keeps the estimator
// responsive (it warms within ~256 reads) while the other 3 calls cost
// one atomic add.
const hedgeSample = 4

// The clamp bounds of the hedge delay.
const (
	hedgeMin = 250 * time.Microsecond
	hedgeMax = 100 * time.Millisecond
)

// NewHedge creates a hedge policy clamped to [hedgeMin, hedgeMax].
func NewHedge() *Hedge {
	return &Hedge{p99: stats.NewP2Quantile(0.99)}
}

// Observe folds one non-hedged read latency into the p99 estimate
// (sampled 1-in-hedgeSample). The cached delay refreshes every 16
// retained samples once warm — Delay stays an atomic load on the hot
// path.
func (h *Hedge) Observe(d time.Duration) {
	if h.tick.Add(1)%hedgeSample != 0 {
		return
	}
	h.mu.Lock()
	h.p99.Add(float64(d))
	h.n++
	if h.n >= hedgeWarmup && h.n%16 == 0 {
		h.cached.Store(int64(min(max(time.Duration(h.p99.Value()), hedgeMin), hedgeMax)))
	}
	h.mu.Unlock()
}

// Delay returns the hedge trigger delay and whether hedging is active
// (false until the estimator has warmed up). Lock-free.
func (h *Hedge) Delay() (time.Duration, bool) {
	d := h.cached.Load()
	if d == 0 {
		return 0, false
	}
	return time.Duration(d), true
}
