package cluster

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// The paper's detector is passive: failures surface only when a read
// addressed to the dead node times out, so detection latency is bounded
// by TTL × TIMEOUT_LIMIT *after* the first unlucky request. Heartbeat is
// the proactive alternative: a background prober that feeds the same
// Tracker, declaring nodes dead within Interval × FailThreshold of the
// failure even if no reads touched them — at the cost of steady
// background RPC chatter. The ablation in bench_test.go compares the
// two; production FT-Cache can run both against one Tracker since the
// evidence model (consecutive timeouts, success resets) is shared.
//
// Heartbeat is also the recovery sensor: with OnRevive set it keeps
// probing declared-failed nodes into the tracker's probe streak, the one
// Client.Rejoin's pings extend, and at Limit answers in a row OnRevive
// starts the elastic rejoin. Limit successes to re-admit mirror Limit
// timeouts to declare: one lucky packet from a flapping node must not
// re-admit it, just as one lost packet must not declare it dead.

// Pinger probes a node; a non-nil error is failure evidence.
type Pinger interface {
	Ping(ctx context.Context, node NodeID) error
}

// HeartbeatConfig tunes the prober.
type HeartbeatConfig struct {
	// Interval between probe rounds; <= 0 selects 500ms.
	Interval time.Duration
	// Timeout per probe; <= 0 selects Interval/2.
	Timeout time.Duration
	// OnRevive, when set, enables recovery probing: it is invoked (from a
	// prober goroutine) on each answered probe of a failed node whose
	// streak has reached the tracker's Limit, unless a rejoin of it is in
	// flight. The HVAC client's Rejoin goes here. nil probes no failed node.
	OnRevive func(NodeID)
}

const (
	// heartbeatJitter shifts each round's wait uniformly within ±this
	// fraction of Interval, so after a mass event the clients' probe
	// rounds do not hit the survivors as one pulse per interval.
	heartbeatJitter = 0.1
	// heartbeatParallelism bounds concurrent probes per round.
	heartbeatParallelism = 8
)

// Heartbeat periodically probes every live member of a Tracker.
type Heartbeat struct {
	cfg     HeartbeatConfig
	tracker *Tracker
	pinger  Pinger

	mu      sync.Mutex
	cancel  context.CancelFunc
	done    chan struct{}
	rounds  int
	started bool
	rng     *rand.Rand
}

// NewHeartbeat creates a prober bound to tracker and pinger.
func NewHeartbeat(tracker *Tracker, pinger Pinger, cfg HeartbeatConfig) *Heartbeat {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval / 2
	}
	return &Heartbeat{
		cfg:     cfg,
		tracker: tracker,
		pinger:  pinger,
		rng:     rand.New(rand.NewSource(rand.Int63())),
	}
}

// Start launches the probe loop; calling Start twice is a no-op.
func (h *Heartbeat) Start() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.started {
		return
	}
	h.started = true
	//ftclint:ignore ctxflow probe-loop lifetime root owned by the Start/Stop pair; Stop cancels it
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	h.done = make(chan struct{})
	go h.loop(ctx)
}

// Stop halts probing and waits for the loop to exit. Safe to call
// without Start or repeatedly.
func (h *Heartbeat) Stop() {
	h.mu.Lock()
	if !h.started {
		h.mu.Unlock()
		return
	}
	h.started = false
	cancel, done := h.cancel, h.done
	h.mu.Unlock()
	cancel()
	<-done
}

// nextWait returns the jittered inter-round wait.
func (h *Heartbeat) nextWait() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cfg.Interval + time.Duration((2*h.rng.Float64()-1)*heartbeatJitter*float64(h.cfg.Interval))
}

func (h *Heartbeat) loop(ctx context.Context) {
	defer close(h.done)
	timer := time.NewTimer(h.cfg.Interval)
	defer timer.Stop()
	for {
		h.probeRound(ctx)
		h.mu.Lock()
		h.rounds++
		h.mu.Unlock()
		timer.Reset(h.nextWait())
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
	}
}

// probeRound pings every live member and feeds the tracker; with
// recovery probing enabled it also pings failed members, feeds their
// probe streak and fires OnRevive when the tracker asks for a rejoin.
func (h *Heartbeat) probeRound(ctx context.Context) {
	nodes := h.tracker.Alive()
	live := len(nodes)
	if h.cfg.OnRevive != nil {
		nodes = append(nodes, h.tracker.FailedNodes()...)
	}
	sem := make(chan struct{}, heartbeatParallelism)
	var wg sync.WaitGroup
	for i, node := range nodes {
		failed := i >= live
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			probeCtx, cancel := context.WithTimeout(ctx, h.cfg.Timeout)
			defer cancel()
			err := h.pinger.Ping(probeCtx, node)
			switch {
			case ctx.Err() != nil: // don't count shutdown as evidence
			case failed:
				if h.tracker.ProbeResult(node, err == nil) == StartRejoin {
					h.cfg.OnRevive(node)
				}
			case err != nil:
				h.tracker.RecordTimeout(node)
			default:
				h.tracker.RecordSuccess(node)
			}
		}()
	}
	wg.Wait()
}
