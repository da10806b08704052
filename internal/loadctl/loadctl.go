// Package loadctl is the hot-object load-control layer of the FT-Cache
// stack. The hash ring balances *placement* — every key has exactly one
// owner — but a skewed access pattern (Zipf-distributed sample
// popularity, a shared index file, a dataset manifest) still lands all
// of one key's traffic on a single node. Under the heavy-traffic regime
// the roadmap targets, that node saturates while its neighbours idle:
// placement balance without *load* balance.
//
// loadctl attacks the problem from four sides, all composable and all
// off by default (a client without a loadctl.Config behaves exactly as
// before):
//
//   - Read coalescing (coalesce.go): N concurrent reads of the same
//     path through one client collapse into a single flight; the
//     waiters share the winner's bytes. The win is largest on a cold or
//     just-failed-over key, where a thundering herd of misses would
//     otherwise all hit the PFS.
//   - Hot-key detection (sketch.go): a fixed-memory space-saving sketch,
//     sampled so the common case costs one atomic add, identifies the
//     keys that dominate the access distribution.
//   - Replica fan-out with hedged reads (p2c.go, hedge.go; driven by
//     the hvac client): keys flagged hot are pushed to the next R ring
//     successors and subsequent reads pick a server by
//     power-of-two-choices over observed per-node latency, hedging to a
//     second candidate when the first is slower than the running p99.
//   - Admission control (limiter.go; driven by the hvac server): a
//     concurrency/queue-depth limiter that sheds excess load with an
//     explicit overload status, which clients treat as a redirect
//     signal — never as failure-detector evidence.
package loadctl

import (
	"sync"

	"repro/internal/cluster"
)

// Config tunes the client-side load-control subsystem: the hot-key
// sketch and the fan-out width. The zero value of every field selects a
// sensible default (see withDefaults), so &loadctl.Config{} enables the
// subsystem with stock behavior. The hedge delay's clamp is fixed
// (hedgeMin, hedgeMax).
type Config struct {
	// SketchSize is the number of key slots the hot-key sketch tracks
	// (the space-saving k). <= 0 selects 64.
	SketchSize int
	// SampleRate: one in SampleRate reads updates the sketch; the rest
	// pay only a lock-free hot-set lookup. <= 0 selects 8.
	SampleRate int
	// WindowTouches is the sketch aging window in sampled touches:
	// when a window completes, every count halves, so hotness tracks
	// the recent access distribution instead of all of history.
	// <= 0 selects 4096.
	WindowTouches int64
	// HotFraction is the share of recent (sampled, decayed) traffic at
	// which a key is declared hot. <= 0 selects 0.01 — a key taking more
	// than 1% of recent traffic is a fan-out candidate.
	HotFraction float64
	// Replicas is the number of ring successors a hot object is fanned
	// out to (beyond its owner). <= 0 selects 3.
	Replicas int
}

// withDefaults resolves zero fields to their defaults.
func (c Config) withDefaults() Config {
	if c.SketchSize <= 0 {
		c.SketchSize = 64
	}
	if c.SampleRate <= 0 {
		c.SampleRate = 8
	}
	if c.WindowTouches <= 0 {
		c.WindowTouches = 4096
	}
	if c.HotFraction <= 0 {
		c.HotFraction = 0.01
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	return c
}

// Controller bundles the client-side load-control state for one hvac
// client: the coalescing group, the hot-key sketch, the per-node
// latency tracker and the hedge policy, plus the record of which hot
// keys have already been fanned out.
type Controller struct {
	cfg      Config
	Coalesce *Group
	Sketch   *Sketch
	Latency  *NodeLatency
	Hedge    *Hedge

	// pushed records hot keys whose replica fan-out has been issued, so
	// each client pushes a hot object at most once per ring epoch.
	pushed sync.Map // key → struct{}
}

// New assembles a Controller over the client's node set.
func New(cfg Config, nodes []cluster.NodeID) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{
		cfg:      cfg,
		Coalesce: NewGroup(),
		Sketch:   NewSketch(cfg),
		Latency:  NewNodeLatency(nodes),
		Hedge:    NewHedge(),
	}
}

// Replicas returns the hot-object fan-out width.
func (c *Controller) Replicas() int { return c.cfg.Replicas }

// MarkPushed records the replica fan-out of key; it returns true only
// for the first caller, making the push idempotent per ring epoch. A
// pushed key costs a Load, which unlike LoadOrStore boxes nothing.
func (c *Controller) MarkPushed(key string) bool {
	if _, ok := c.pushed.Load(key); ok {
		return false
	}
	_, loaded := c.pushed.LoadOrStore(key, struct{}{})
	return !loaded
}

// InvalidateReplicas forgets every recorded fan-out. Called on ring
// membership changes (failure or revival): successor sets shift, so hot
// objects must re-replicate against the new ring. Replica copies left
// on no-longer-successor nodes age out of their LRU caches naturally —
// replicas are best-effort cache entries, never authoritative. A nil
// Controller, load control off, has nothing to forget.
func (c *Controller) InvalidateReplicas() {
	if c == nil {
		return
	}
	c.pushed.Range(func(k, _ any) bool {
		c.pushed.Delete(k)
		return true
	})
}

// DebugSnapshot is the /debug/ftcache section: the hot-key table plus
// the policy's live parameters.
func (c *Controller) DebugSnapshot() map[string]any {
	top := c.Sketch.Top(16)
	keys := make([]map[string]any, len(top))
	for i, kc := range top {
		keys[i] = map[string]any{
			"key":   kc.Key,
			"count": kc.Count,
			"hot":   c.Sketch.IsHot(kc.Key),
		}
	}
	delay, ready := c.Hedge.Delay()
	return map[string]any{
		"top_keys":       keys,
		"hot_keys":       c.Sketch.HotCount(),
		"hot_flagged":    c.Sketch.Flagged(),
		"hedge_ready":    ready,
		"hedge_delay_us": delay.Microseconds(),
		"replicas":       c.Replicas(),
		"sample_rate":    c.cfg.SampleRate,
	}
}
