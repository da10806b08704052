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
// Heartbeat is also the recovery sensor: with ReviveThreshold > 0 it
// keeps probing *declared-failed* nodes, and when one answers K
// consecutive probes the OnRevive hook fires — the trigger for the
// elastic rejoin path (Tracker.Revive → ring re-add → NVMe warmup).
// Requiring K consecutive successes mirrors the failure side's
// consecutive-timeout threshold: a single lucky packet from a flapping
// node must not re-admit it, just as a single lost packet must not
// declare it dead.

// Pinger probes a node; a non-nil error is failure evidence.
type Pinger interface {
	Ping(ctx context.Context, node NodeID) error
}

// PingerFunc adapts a function to Pinger.
type PingerFunc func(ctx context.Context, node NodeID) error

// Ping implements Pinger.
func (f PingerFunc) Ping(ctx context.Context, node NodeID) error { return f(ctx, node) }

// HeartbeatConfig tunes the prober.
type HeartbeatConfig struct {
	// Interval between probe rounds; <= 0 selects 500ms.
	Interval time.Duration
	// Timeout per probe; <= 0 selects Interval/2.
	Timeout time.Duration
	// ReviveThreshold enables recovery probing: failed nodes keep being
	// probed, and after this many consecutive successful probes OnRevive
	// fires for the node. 0 disables recovery probing (failed nodes are
	// never probed — the pre-rejoin behavior).
	ReviveThreshold int
	// OnRevive is invoked (from a prober goroutine) when a failed node
	// passes ReviveThreshold consecutive probes. The streak then resets,
	// so while the node *stays* failed — e.g. the triggered rejoin lost a
	// race with a still-active fault — OnRevive re-fires after every
	// further ReviveThreshold consecutive successes rather than latching
	// shut; handlers running a multi-step rejoin should dedup in-flight
	// work (hvac.Client.Rejoin does). nil selects Tracker.Revive
	// directly; the HVAC client wires its warmup-then-revive rejoin here
	// instead.
	OnRevive func(NodeID)
}

const (
	// heartbeatJitter is the fraction of Interval each round's wait is
	// randomly shifted by (uniform in ±heartbeatJitter×Interval). After
	// a mass event every client's prober fires on the same schedule;
	// without jitter those synchronized probe storms hit the surviving
	// nodes as one pulse per interval.
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
	// reviveStreak counts consecutive successful probes of failed nodes.
	reviveStreak map[NodeID]int
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
		cfg:          cfg,
		tracker:      tracker,
		pinger:       pinger,
		rng:          rand.New(rand.NewSource(rand.Int63())),
		reviveStreak: make(map[NodeID]int),
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

// completedRounds returns how many probe rounds have completed.
func (h *Heartbeat) completedRounds() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rounds
}

// nextWait returns the jittered inter-round wait.
func (h *Heartbeat) nextWait() time.Duration {
	d := h.cfg.Interval
	h.mu.Lock()
	f := h.rng.Float64()
	h.mu.Unlock()
	shift := time.Duration((2*f - 1) * heartbeatJitter * float64(d))
	return d + shift
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
// recovery probing enabled it also pings failed members and fires
// OnRevive when one has answered ReviveThreshold rounds in a row.
func (h *Heartbeat) probeRound(ctx context.Context) {
	alive := h.tracker.Alive()
	sem := make(chan struct{}, heartbeatParallelism)
	var wg sync.WaitGroup
	for _, node := range alive {
		node := node
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			probeCtx, cancel := context.WithTimeout(ctx, h.cfg.Timeout)
			defer cancel()
			if err := h.pinger.Ping(probeCtx, node); err != nil {
				if ctx.Err() == nil { // don't count shutdown as evidence
					h.tracker.RecordTimeout(node)
				}
				return
			}
			h.tracker.RecordSuccess(node)
		}()
	}
	if h.cfg.ReviveThreshold > 0 {
		for _, node := range h.tracker.FailedNodes() {
			node := node
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				probeCtx, cancel := context.WithTimeout(ctx, h.cfg.Timeout)
				defer cancel()
				err := h.pinger.Ping(probeCtx, node)
				if ctx.Err() != nil {
					return
				}
				h.mu.Lock()
				if err != nil {
					h.reviveStreak[node] = 0
					h.mu.Unlock()
					return
				}
				h.reviveStreak[node]++
				fire := h.reviveStreak[node] >= h.cfg.ReviveThreshold
				if fire {
					h.reviveStreak[node] = 0
				}
				h.mu.Unlock()
				if fire {
					if h.cfg.OnRevive != nil {
						h.cfg.OnRevive(node)
					} else {
						h.tracker.Revive(node)
					}
				}
			}()
		}
	}
	wg.Wait()
}
