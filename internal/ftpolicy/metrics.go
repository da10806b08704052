package ftpolicy

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ftcache"
	"repro/internal/telemetry"
)

// current is the controller the process-global debug section and
// control action read. They register once, so they indirect through
// this pointer and the newest controller takes them over — the same
// latest-wins contract the other debug sections use.
var current atomic.Pointer[Controller]

var registerOnce sync.Once

// attachTelemetry points the "policy" /debug/ftcache section (active
// strategy, live signals, switch count and the last decisions with
// their reasons, which ftcctl policy reads) and the policy-force control
// at c, registering both on first use. The policy publishes no series:
// the section and Switches are the one home of its state.
func attachTelemetry(c *Controller) {
	current.Store(c)
	registerOnce.Do(func() {
		r := telemetry.Default()
		r.RegisterDebug("policy", func() any {
			cc := current.Load()
			if cc == nil {
				return nil
			}
			return cc.DebugSnapshot(16)
		})
		r.RegisterControl("policy-force", func(arg string) error {
			cc := current.Load()
			if cc == nil {
				return fmt.Errorf("ftpolicy: no controller attached")
			}
			return cc.Force(ftcache.StrategyKind(arg))
		})
	})
}

// DebugSnapshot is the "policy" /debug/ftcache section: the active
// strategy, any operator pin, the live signal aggregate, and the last
// n decisions with their reasons.
func (c *Controller) DebugSnapshot(n int) map[string]any {
	decisions := c.Decisions(n)
	rows := make([]map[string]any, len(decisions))
	for i, d := range decisions {
		rows[i] = map[string]any{
			"seq":    d.Seq,
			"tick":   d.Tick,
			"from":   string(d.From),
			"to":     string(d.To),
			"reason": d.Reason,
			"forced": d.Forced,
		}
	}
	return map[string]any{
		"active":    string(c.Active()),
		"forced":    string(c.Forced()),
		"switches":  c.Switches(),
		"tick":      c.tick.Load(),
		"signals":   c.snapshotSignals(),
		"decisions": rows,
	}
}
