// Package ftpolicy is the adaptive fault-tolerance policy controller:
// the closed control loop that turns the repo's three static strategy
// design points (NoFT / FT w/ PFS / FT w/ NVMe) into a single runtime
// policy selected from observed telemetry, per epoch tick.
//
// The controller watches signals the stack already emits — failure and
// recovery declarations from each client's timeout detector, PFS
// fallback traffic and read latency from the clients, shed/hedge/
// timeout counters from loadctl — aggregates them per tick, and drives
// every attached ftcache.Strategy to the strategy the current regime
// favors:
//
//   - PFS contention (slow probe/EWMA latency with PFS traffic or
//     failed nodes outstanding) → FT w/ NVMe: pay one recache per lost
//     file instead of the congested PFS on every read.
//   - Failure burst / membership flapping (high fail+revive rate) with
//     a fast PFS → FT w/ PFS: redirect around flapping nodes without
//     churning the ring, wasting recache work, or polluting bounded
//     NVMe caches with transient copies.
//   - Sustained calm (no evidence for CalmTicks) → NoFT when allowed:
//     zero failure bookkeeping; the strategy's escape hatch converts a
//     surprise failure into an automatic switch, never an abort.
//   - Anything else → FT w/ NVMe, the paper's best static default.
//
// Decisions are made by a pure function of (state, Signals) with
// hysteresis watermarks and a tick-counted cooldown, so the controller
// never flaps and every run can be replayed deterministically from its
// exported decision log. A switch is a single atomic swap of the
// response an adaptive ftcache.Strategy has in force: the read hot path
// consults the policy with one atomic load, and requests in flight
// across a switch observe exactly one response each.
package ftpolicy

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ftcache"
	"repro/internal/hvac"
	"repro/internal/telemetry"
)

// Config tunes the controller. Zero values select the defaults noted
// per field.
type Config struct {
	// Interval is the tick (epoch) period for Run; <= 0 selects 100ms.
	// Tests and benches may drive Tick directly instead.
	Interval time.Duration
	// CooldownTicks is the minimum number of ticks between committed
	// switches; <= 0 selects 3. Forced switches ignore it.
	CooldownTicks int
	// FailHigh is the per-tick failure+recovery event count at and
	// above which the fleet counts as bursting/flapping; <= 0 selects 2.
	FailHigh float64
	// FailLow is the hysteresis floor: once in the burst regime, the
	// controller stays there until events/tick drop below FailLow;
	// <= 0 selects 1.
	FailLow float64
	// BurstQuietTicks is how many consecutive sub-FailLow ticks are
	// required to leave the burst regime. Failure declarations arrive in
	// clusters with quiet ticks between them, so a single quiet tick is
	// not evidence the burst ended; <= 0 selects 3.
	BurstQuietTicks int
	// PFSLatencyHigh is the PFS read latency at and above which the PFS
	// counts as contended; <= 0 selects 1ms.
	PFSLatencyHigh time.Duration
	// PFSLatencyLow is the hysteresis floor for leaving the contention
	// regime; <= 0 selects PFSLatencyHigh / 4.
	PFSLatencyLow time.Duration
	// CalmTicks is the number of consecutive evidence-free ticks before
	// NoFT becomes eligible; <= 0 selects 10.
	CalmTicks int
	// AllowNoFT permits the calm→NoFT transition. Off by default: NoFT
	// buys nothing over FTNVMe in the healthy state (placement is
	// identical) and costs an escape switch on the next failure.
	AllowNoFT bool
	// LogSize bounds the retained decision log; <= 0 selects 64.
	LogSize int
	// Knobs, when non-nil, lets regime changes retune the load-control
	// surface alongside the strategy.
	Knobs *Knobs
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.CooldownTicks <= 0 {
		c.CooldownTicks = 3
	}
	if c.FailHigh <= 0 {
		c.FailHigh = 2
	}
	if c.FailLow <= 0 {
		c.FailLow = 1
	}
	if c.BurstQuietTicks <= 0 {
		c.BurstQuietTicks = 3
	}
	if c.PFSLatencyHigh <= 0 {
		c.PFSLatencyHigh = time.Millisecond
	}
	if c.PFSLatencyLow <= 0 {
		c.PFSLatencyLow = c.PFSLatencyHigh / 4
	}
	if c.CalmTicks <= 0 {
		c.CalmTicks = 10
	}
	if c.LogSize <= 0 {
		c.LogSize = 64
	}
	return c
}

// Knobs are the runtime load-control handles a regime change may
// retune. Any nil member is skipped.
type Knobs struct {
	// SetReplicas retunes hot-object fan-out width (0 = default).
	SetReplicas func(n int)
	// SetHedgeClamp retunes the hedged-read delay clamp.
	SetHedgeClamp func(min, max time.Duration)
	// SetRetryBudget retunes the conn-class retry count (-1 = default).
	SetRetryBudget func(n int)
	// SetAdmissionLimit retunes server admission (0 = default).
	SetAdmissionLimit func(n int)
}

// Signals is one tick's aggregated observation — everything decide is
// allowed to see. All rates are per-tick deltas summed across attached
// clients.
type Signals struct {
	Tick       int64   `json:"tick"`
	Failures   float64 `json:"failures"`    // detector declarations this tick
	Recoveries float64 `json:"recoveries"`  // revivals this tick
	Timeouts   float64 `json:"timeouts"`    // RPC timeouts this tick
	DirectPFS  float64 `json:"direct_pfs"`  // client-side PFS reads this tick
	ServedPFS  float64 `json:"served_pfs"`  // server-side PFS fallbacks this tick
	Sheds      float64 `json:"sheds"`       // admission sheds redirected this tick
	Hedges     float64 `json:"hedges"`      // hedge legs launched this tick
	FailedDown float64 `json:"failed_down"` // nodes currently declared failed
	PFSLatMs   float64 `json:"pfs_lat_ms"`  // PFS read latency (probe ∨ EWMA max)
}

// events is the combined fail+revive churn rate — the flap signal.
func (s Signals) events() float64 { return s.Failures + s.Recoveries }

// calm reports a tick with zero failure evidence of any kind.
func (s Signals) calm() bool {
	return s.Failures == 0 && s.Recoveries == 0 && s.Timeouts == 0 && s.FailedDown == 0
}

// Decision is one committed (or forced, or escape) policy transition.
// State is the controller's carried decision state just before the
// deciding tick ran, so each entry is a self-contained replay unit:
// decide(State, Signals) must reproduce (To, Reason).
type Decision struct {
	Seq     int64                `json:"seq"`
	Tick    int64                `json:"tick"`
	From    ftcache.StrategyKind `json:"from"`
	To      ftcache.StrategyKind `json:"to"`
	Reason  string               `json:"reason"`
	Forced  bool                 `json:"forced"`
	Signals Signals              `json:"signals"`
	State   ReplayState          `json:"state"`
}

// ReplayState is the exported form of the pure decision function's
// carried state.
type ReplayState struct {
	Active       ftcache.StrategyKind `json:"active"`
	LastSwitch   int64                `json:"last_switch"`
	CalmStreak   int                  `json:"calm_streak"`
	QuietStreak  int                  `json:"quiet_streak"`
	InBurst      bool                 `json:"in_burst"`
	InContention bool                 `json:"in_contention"`
}

func (st decideState) export() ReplayState {
	return ReplayState{
		Active: st.active, LastSwitch: st.lastSwitch,
		CalmStreak: st.calmStreak, QuietStreak: st.quietStreak,
		InBurst: st.inBurst, InContention: st.inContention,
	}
}

func (rs ReplayState) state() decideState {
	return decideState{
		active: rs.Active, lastSwitch: rs.LastSwitch,
		calmStreak: rs.CalmStreak, quietStreak: rs.QuietStreak,
		inBurst: rs.InBurst, inContention: rs.InContention,
	}
}

// decideState is the pure decision function's carried state. It holds
// no clocks and no pointers — replaying a decision log reconstructs it
// exactly.
type decideState struct {
	active       ftcache.StrategyKind
	lastSwitch   int64 // tick of the last committed switch
	calmStreak   int
	quietStreak  int  // consecutive sub-FailLow ticks while in burst
	inBurst      bool // hysteresis latch: entered burst regime
	inContention bool // hysteresis latch: entered contention regime
}

// decide is the pure policy: given the carried state and one tick's
// signals, return the target strategy and the reason, or ok=false to
// hold. Hysteresis: regimes are entered at the High watermark and left
// at the Low one; a cooldown of CooldownTicks must elapse between
// switches. decide mutates only st (the replayable state).
func decide(cfg Config, st *decideState, sig Signals) (to ftcache.StrategyKind, reason string, ok bool) {
	// Latch updates run every tick, switch or not — hysteresis is a
	// property of the observed regime, not of the committed strategy.
	if st.inBurst {
		if sig.events() < cfg.FailLow {
			st.quietStreak++
			if st.quietStreak >= cfg.BurstQuietTicks {
				st.inBurst = false
				st.quietStreak = 0
			}
		} else {
			st.quietStreak = 0
		}
	} else if sig.events() >= cfg.FailHigh {
		st.inBurst = true
		st.quietStreak = 0
	}
	high := float64(cfg.PFSLatencyHigh) / float64(time.Millisecond)
	low := float64(cfg.PFSLatencyLow) / float64(time.Millisecond)
	if st.inContention {
		if sig.PFSLatMs < low {
			st.inContention = false
		}
	} else if sig.PFSLatMs >= high {
		st.inContention = true
	}
	if sig.calm() {
		st.calmStreak++
	} else {
		st.calmStreak = 0
	}

	// Regime → strategy. Contention dominates burst: with the PFS slow,
	// per-read redirection is the one policy that cannot work, whatever
	// the failure rate is doing.
	target := ftcache.KindNVMe
	switch {
	case st.inContention:
		target, reason = ftcache.KindNVMe, "pfs-contention"
	case st.inBurst:
		target, reason = ftcache.KindPFS, "failure-burst"
	case cfg.AllowNoFT && st.calmStreak >= cfg.CalmTicks:
		target, reason = ftcache.KindNoFT, "calm"
	default:
		target, reason = ftcache.KindNVMe, "default"
	}
	if target == st.active {
		return "", "", false
	}
	if sig.Tick-st.lastSwitch < int64(cfg.CooldownTicks) {
		return "", "", false
	}
	return target, reason, true
}

// Controller drives one or more attached clients' adaptive strategies
// from aggregated live signals.
type Controller struct {
	cfg Config

	mu      sync.Mutex
	st      decideState
	tick    atomic.Int64
	clients []*attachedClient
	targets []*ftcache.Strategy
	prev    prevCounters
	log     []Decision
	seq     atomic.Int64

	// forced, when non-empty, pins the strategy (operator override).
	forced atomic.Pointer[ftcache.StrategyKind]

	// probe, when set, measures one PFS read per tick — the primary
	// contention detector (the EWMA only updates when clients happen to
	// read the PFS directly).
	probe func() (time.Duration, bool)

	// failures/recoveries accumulate detector callbacks between ticks.
	failures   atomic.Int64
	recoveries atomic.Int64

	// lastSignals is the latest tick's aggregate for gauges/debug.
	lastSignals atomic.Pointer[Signals]

	metrics *policyMetrics
}

type attachedClient struct {
	client *hvac.Client
	sw     *ftcache.Strategy
}

// prevCounters holds the previous tick's cumulative sums for delta
// computation.
type prevCounters struct {
	timeouts, directPFS, servedPFS, sheds, hedges int64
}

// New creates a controller. Attach clients with Attach, then either
// call Run for the real-time loop or Tick from a harness.
func New(cfg Config) *Controller {
	c := &Controller{cfg: cfg.withDefaults()}
	c.st.active = ftcache.KindNVMe
	c.st.lastSwitch = -int64(c.cfg.CooldownTicks) // first switch is never cooldown-blocked
	c.metrics = newPolicyMetrics(c)
	return c
}

// SetPFSProbe installs the per-tick PFS latency probe.
func (c *Controller) SetPFSProbe(fn func() (time.Duration, bool)) { c.probe = fn }

// Attach registers a client and its adaptive strategy with the
// controller. The client's detector feeds the controller's failure/
// recovery rates; the strategy both follows committed decisions and
// reports escape switches back into the decision log. The first
// attached strategy's kind seeds the controller state.
func (c *Controller) Attach(cli *hvac.Client, sw *ftcache.Strategy) {
	c.mu.Lock()
	if len(c.targets) == 0 {
		c.st.active = sw.Kind()
	}
	c.clients = append(c.clients, &attachedClient{client: cli, sw: sw})
	c.targets = append(c.targets, sw)
	c.mu.Unlock()
	cli.Tracker().OnFailure(func(cluster.NodeID) { c.failures.Add(1) })
	cli.Tracker().OnRecovery(func(cluster.NodeID) { c.recoveries.Add(1) })
	sw.OnSwitch(func(from, to ftcache.StrategyKind, auto bool) {
		if !auto {
			return // committed by this controller; already logged
		}
		c.recordEscape(from, to)
	})
}

// recordEscape logs a strategy-initiated escape (noft abort hatch)
// and re-syncs the controller state and sibling targets to it.
func (c *Controller) recordEscape(from, to ftcache.StrategyKind) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.active = to
	c.st.lastSwitch = c.tick.Load()
	c.appendLocked(Decision{
		Seq:     c.seq.Add(1),
		Tick:    c.tick.Load(),
		From:    from,
		To:      to,
		Reason:  "noft-escape",
		Signals: c.snapshotSignals(),
	})
	for _, t := range c.targets {
		t.SwitchTo(to)
	}
	c.metrics.switches.Inc()
}

func (c *Controller) snapshotSignals() Signals {
	if s := c.lastSignals.Load(); s != nil {
		return *s
	}
	return Signals{}
}

// Force pins the strategy (operator override via ftcctl policy -force).
// kind "" or "auto" releases the pin and resumes adaptive control.
func (c *Controller) Force(kind ftcache.StrategyKind) error {
	if kind == "" || kind == "auto" {
		c.forced.Store(nil)
		return nil
	}
	switch kind {
	case ftcache.KindNoFT, ftcache.KindPFS, ftcache.KindNVMe:
	default:
		return fmt.Errorf("ftpolicy: unknown strategy %q", kind)
	}
	c.forced.Store(&kind)
	c.commit(kind, "forced", true)
	return nil
}

// Forced returns the pinned strategy ("" = auto).
func (c *Controller) Forced() ftcache.StrategyKind {
	if k := c.forced.Load(); k != nil {
		return *k
	}
	return ""
}

// Active returns the controller's view of the active strategy.
func (c *Controller) Active() ftcache.StrategyKind {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.active
}

// Decisions returns the most recent min(n, kept) decisions, newest
// last. n <= 0 returns the whole retained log.
func (c *Controller) Decisions(n int) []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 || n > len(c.log) {
		n = len(c.log)
	}
	out := make([]Decision, n)
	copy(out, c.log[len(c.log)-n:])
	return out
}

// Switches returns the cumulative committed-switch count.
func (c *Controller) Switches() int64 { return c.seq.Load() }

// Tick runs one control epoch: gather signals, decide, commit. Exposed
// so harnesses and tests can drive the controller deterministically;
// Run calls it on a timer.
func (c *Controller) Tick() {
	tick := c.tick.Add(1)
	sig := c.gather(tick)
	c.lastSignals.Store(&sig)

	if c.forced.Load() != nil {
		return // pinned: observe, but never decide
	}
	c.mu.Lock()
	pre := c.st.export()
	to, reason, ok := decide(c.cfg, &c.st, sig)
	if !ok {
		c.mu.Unlock()
		return
	}
	from := c.st.active
	c.st.active = to
	c.st.lastSwitch = tick
	c.appendLocked(Decision{
		Seq: c.seq.Add(1), Tick: tick,
		From: from, To: to, Reason: reason, Signals: sig, State: pre,
	})
	targets := append([]*ftcache.Strategy(nil), c.targets...)
	c.mu.Unlock()

	for _, t := range targets {
		t.SwitchTo(to)
	}
	c.applyKnobs(reason)
	c.metrics.switches.Inc()
	telemetry.TraceEvent(telemetry.EventPolicySwitch, "", string(from)+"->"+string(to)+" ("+reason+")", c.seq.Load())
}

// commit applies an externally mandated strategy (Force) through the
// same bookkeeping as a decided switch.
func (c *Controller) commit(to ftcache.StrategyKind, reason string, forced bool) {
	c.mu.Lock()
	if c.st.active == to {
		c.mu.Unlock()
		return
	}
	from := c.st.active
	c.st.active = to
	c.st.lastSwitch = c.tick.Load()
	c.appendLocked(Decision{
		Seq: c.seq.Add(1), Tick: c.tick.Load(),
		From: from, To: to, Reason: reason, Forced: forced,
		Signals: c.snapshotSignals(),
	})
	targets := append([]*ftcache.Strategy(nil), c.targets...)
	c.mu.Unlock()
	for _, t := range targets {
		t.SwitchTo(to)
	}
	c.metrics.switches.Inc()
}

// applyKnobs retunes the load-control surface for the regime just
// entered. The profiles are deliberately coarse: the knobs are
// secondary to the strategy switch, and small profiles are easy to
// reason about in the decision log.
func (c *Controller) applyKnobs(reason string) {
	k := c.cfg.Knobs
	if k == nil {
		return
	}
	switch reason {
	case "pfs-contention":
		// Every avoidable PFS touch matters: widen hot-object fan-out so
		// cache copies absorb load, keep hedging patient (a slow PFS
		// inflates tails; hair-trigger hedges would double traffic), and
		// spend retries to stay off the PFS.
		apply(k.SetReplicas, 3)
		if k.SetHedgeClamp != nil {
			k.SetHedgeClamp(2*time.Millisecond, 100*time.Millisecond)
		}
		apply(k.SetRetryBudget, 2)
		apply(k.SetAdmissionLimit, 0)
	case "failure-burst":
		// Churn regime: conn-class failures are common and transient, so
		// a deeper retry budget rides them out; fan-out is wasted work
		// while membership shifts under it.
		apply(k.SetReplicas, 1)
		if k.SetHedgeClamp != nil {
			k.SetHedgeClamp(time.Millisecond, 100*time.Millisecond)
		}
		apply(k.SetRetryBudget, 3)
		apply(k.SetAdmissionLimit, 0)
	default: // "calm", "default", "forced"
		apply(k.SetReplicas, 0)
		if k.SetHedgeClamp != nil {
			k.SetHedgeClamp(250*time.Microsecond, 100*time.Millisecond)
		}
		apply(k.SetRetryBudget, -1)
		apply(k.SetAdmissionLimit, 0)
	}
}

func apply(fn func(int), n int) {
	if fn != nil {
		fn(n)
	}
}

// gather aggregates one tick's signals across attached clients.
func (c *Controller) gather(tick int64) Signals {
	var cur prevCounters
	var down float64
	var ewma time.Duration
	c.mu.Lock()
	clients := append([]*attachedClient(nil), c.clients...)
	c.mu.Unlock()
	seen := make(map[cluster.NodeID]bool)
	for _, ac := range clients {
		st := ac.client.Stats()
		cur.timeouts += st.Timeouts
		cur.directPFS += st.DirectPFS
		cur.servedPFS += st.ServedPFS
		cur.sheds += st.ShedRedirects
		cur.hedges += st.HedgedReads
		for _, n := range ac.client.Tracker().FailedNodes() {
			seen[n] = true
		}
		if l, ok := ac.client.PFSReadLatency(); ok && l > ewma {
			ewma = l
		}
	}
	down = float64(len(seen))

	lat := ewma
	if c.probe != nil {
		if d, ok := c.probe(); ok && d > lat {
			lat = d
		}
	}

	c.mu.Lock()
	prev := c.prev
	c.prev = cur
	c.mu.Unlock()

	return Signals{
		Tick:       tick,
		Failures:   float64(c.failures.Swap(0)),
		Recoveries: float64(c.recoveries.Swap(0)),
		Timeouts:   float64(cur.timeouts - prev.timeouts),
		DirectPFS:  float64(cur.directPFS - prev.directPFS),
		ServedPFS:  float64(cur.servedPFS - prev.servedPFS),
		Sheds:      float64(cur.sheds - prev.sheds),
		Hedges:     float64(cur.hedges - prev.hedges),
		FailedDown: down,
		PFSLatMs:   float64(lat) / float64(time.Millisecond),
	}
}

func (c *Controller) appendLocked(d Decision) {
	c.log = append(c.log, d)
	if over := len(c.log) - c.cfg.LogSize; over > 0 {
		c.log = append(c.log[:0], c.log[over:]...)
	}
}

// Run ticks the controller every Interval until ctx ends.
func (c *Controller) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Tick()
		}
	}
}

// Replay re-runs the pure decision function over a recorded log and
// verifies every decided transition reproduces exactly — the
// determinism check that makes a production decision log debuggable
// offline. Each entry carries its pre-decision state, so entries are
// verified independently; escape and forced entries are skipped (they
// originate outside decide).
func Replay(cfg Config, log []Decision) error {
	cfg = cfg.withDefaults()
	for i, want := range log {
		if want.Forced || want.Reason == "noft-escape" {
			continue
		}
		st := want.State.state()
		to, reason, ok := decide(cfg, &st, want.Signals)
		if !ok {
			return fmt.Errorf("ftpolicy: replay %d: no switch for signals of seq %d (want %s->%s %q)",
				i, want.Seq, want.From, want.To, want.Reason)
		}
		if to != want.To || reason != want.Reason {
			return fmt.Errorf("ftpolicy: replay %d: got %s (%q), want %s (%q)",
				i, to, reason, want.To, want.Reason)
		}
	}
	return nil
}
