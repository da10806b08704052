package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/failure"
)

// Plan is a deterministic, seeded fault schedule: timed failure events
// in At order, each healed by the executor at At+For.
type Plan struct {
	Seed    int64
	Horizon time.Duration
	Events  []failure.Event
}

// Phase is one regime segment of a plan, drawing faults at its own rate
// for its Duration.
type Phase struct {
	// Name labels the phase in logs ("calm", "burst", ...).
	Name string
	// Duration is the phase length. <= 0 phases are skipped.
	Duration time.Duration
	// MeanGap is the mean time between injections; <= 0 injects none.
	MeanGap time.Duration
	// MeanDown is the mean length of a durable fault; it must be positive
	// when MeanGap is. Faults are cut short at the plan horizon.
	MeanDown time.Duration
	// MaxDownFrac caps the nodes down at once (see GeneratePlan).
	MaxDownFrac float64
	// KillFrac is the probability a crash is a hard kill, not a hang.
	KillFrac float64
	// Network draws every fault kind instead of only crashes, and turns a
	// slot the cap refuses into a conn-drop instead of skipping it.
	Network bool
	// PFSDelay is added to every PFS read during the phase (contention).
	PFSDelay time.Duration
}

// String renders the phase for logs, e.g. "contention=1s(pfs+10ms)".
func (ph Phase) String() string {
	if ph.PFSDelay > 0 {
		return fmt.Sprintf("%s=%s(pfs+%s)", ph.Name, ph.Duration, ph.PFSDelay)
	}
	return fmt.Sprintf("%s=%s", ph.Name, ph.Duration)
}

// latencyMax bounds an injected per-frame delay. It sits near the RPC
// deadline on purpose: latency alone may get a node suspected, and the
// rejoin path must bring it back.
const latencyMax = 40 * time.Millisecond

// PhasesCalmBurstHealContention is the canonical regime walk for
// adaptive-policy evaluation: calm, a dense burst of unresponsive flaps,
// a heal window, then PFS contention (pfsDelay on every PFS read) with
// long-lived node losses that keep keys on dead arcs, so per-read PFS
// redirection pays the full price. unit is the per-phase duration base.
func PhasesCalmBurstHealContention(unit, pfsDelay time.Duration) []Phase {
	return []Phase{
		{Name: "calm", Duration: unit},
		{Name: "burst", Duration: unit, MeanGap: unit / 10, KillFrac: 0.2,
			MeanDown: unit / 5, MaxDownFrac: 0.35},
		{Name: "heal", Duration: unit / 2},
		{Name: "contention", Duration: unit, MeanGap: unit / 8, KillFrac: 1.0,
			MeanDown: 10 * unit, MaxDownFrac: 0.3, PFSDelay: pfsDelay},
		{Name: "drain", Duration: unit / 2},
	}
}

// PhasesContentionFirst is the mirror image, so a controller tuned to
// one ordering can't win by accident: PFS contention with short node
// losses (healed before the burst starts), a breather, then a failure
// burst into a final heal.
func PhasesContentionFirst(unit, pfsDelay time.Duration) []Phase {
	return []Phase{
		{Name: "calm", Duration: unit / 2},
		{Name: "contention", Duration: unit, MeanGap: unit / 8, KillFrac: 1.0,
			MeanDown: unit / 2, MaxDownFrac: 0.3, PFSDelay: pfsDelay},
		{Name: "breather", Duration: unit / 2},
		{Name: "burst", Duration: unit, MeanGap: unit / 10, KillFrac: 0.2,
			MeanDown: unit / 5, MaxDownFrac: 0.35},
		{Name: "drain", Duration: unit},
	}
}

// GeneratePlan builds a fault schedule over nodes from seed, each phase
// in turn drawing faults at its own rate. The same (seed, nodes, phases)
// always yields the identical plan, which is what makes a failed soak
// replayable: rerun with the printed seed and the same faults fire at
// the same offsets.
//
// Every fault but a conn-drop is durable: it lasts For > 0 and heals by
// the horizon. A node holds at most one durable fault at a time, and a
// fault that leaves its node unreachable (crash, partition, asym-send,
// blackhole) starts only while fewer than max(1, ⌊MaxDownFrac ×
// len(nodes)⌋) nodes hold a durable fault of any kind.
func GeneratePlan(seed int64, nodes []string, phases []Phase) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed}
	for _, ph := range phases {
		p.Horizon += max(ph.Duration, 0)
	}
	downUntil := make(map[string]time.Duration) // node → when its durable fault heals
	downAt := func(t time.Duration) int {
		n := 0
		for _, until := range downUntil {
			if until > t {
				n++
			}
		}
		return n
	}
	gap := func(mean time.Duration) time.Duration {
		return mean/2 + time.Duration(rng.Int63n(int64(mean)))
	}

	end := time.Duration(0)
	for _, ph := range phases {
		if ph.Duration <= 0 {
			continue
		}
		start := end
		end += ph.Duration
		if ph.PFSDelay > 0 {
			p.Events = append(p.Events, failure.Event{At: start, Fault: failure.PFSDelay,
				For: ph.Duration, Delay: ph.PFSDelay})
		}
		if ph.MeanGap <= 0 {
			continue
		}
		maxDown := max(1, int(float64(len(nodes))*ph.MaxDownFrac))
		for t := start + gap(ph.MeanGap); t < end; t += gap(ph.MeanGap) {
			ev := failure.Event{At: t, Node: nodes[rng.Intn(len(nodes))]}
			ev.For = min(gap(ph.MeanDown), p.Horizon-t)
			if ph.Network {
				ev.Fault = pickFault(rng)
			}
			switch {
			case downUntil[ev.Node] > t:
				// The node already holds a durable fault; skip this slot.
			case unreachable(ev.Fault) && downAt(t) >= maxDown:
				if ph.Network {
					p.Events = append(p.Events, failure.Event{At: t, Node: ev.Node, Fault: failure.ConnDrop})
				}
			default:
				switch ev.Fault {
				case failure.ConnDrop:
					ev.For = 0
				case failure.Crash:
					ev.Kill = rng.Float64() < ph.KillFrac
				case failure.Latency:
					ev.Delay = time.Duration(rng.Int63n(int64(latencyMax)))
					ev.Jitter = ev.Delay / 2
				}
				if ev.For > 0 {
					downUntil[ev.Node] = t + ev.For
				}
				p.Events = append(p.Events, ev)
			}
		}
	}
	return p
}

// unreachable reports whether f leaves its node unreachable, the faults
// the down cap gates.
func unreachable(f failure.Fault) bool {
	return f == failure.Crash || f == failure.Partition || f == failure.AsymSend || f == failure.Blackhole
}

// pickFault draws a fault kind with fixed weights.
func pickFault(rng *rand.Rand) failure.Fault {
	switch n := rng.Intn(100); {
	case n < 18:
		return failure.Partition
	case n < 28:
		return failure.AsymSend
	case n < 38:
		return failure.AsymRecv
	case n < 60:
		return failure.Latency
	case n < 70:
		return failure.Blackhole
	case n < 80:
		return failure.ConnDrop
	default:
		return failure.Crash
	}
}

// step is one thing the executor does: start ev's fault, or heal it.
type step struct {
	at   time.Duration
	heal bool
	ev   failure.Event
}

// timeline expands events into the steps the executor walks, in time
// order: each fault at At and, when For > 0, its heal at At+For. At one
// instant heals go first, so a node healed at t may fault again at t.
func timeline(events []failure.Event) []step {
	steps := make([]step, 0, 2*len(events))
	for _, ev := range events {
		steps = append(steps, step{at: ev.At, ev: ev})
		if ev.For > 0 {
			steps = append(steps, step{at: ev.At + ev.For, heal: true, ev: ev})
		}
	}
	sort.SliceStable(steps, func(i, j int) bool {
		a, b := steps[i], steps[j]
		return a.at < b.at || a.at == b.at && a.heal && !b.heal
	})
	return steps
}

// Actions are the node-lifecycle hooks a plan needs beyond the network:
// the chaos package cannot kill a server process itself, so the harness
// (the soaks, ftcbench -adaptft) supplies these against its cluster.
type Actions struct {
	// Crash takes node down; kill selects hard-kill vs unresponsive.
	Crash func(node string, kill bool)
	// Restart brings a crashed node back up (listening again).
	Restart func(node string)
	// SetPFSDelay (re)sets the injected fleet-wide PFS read delay; 0
	// clears it. Optional.
	SetPFSDelay func(d time.Duration)
}

// Execute applies the plan against ctl (and act, for crash/restart and
// the PFS delay) in real time, sleeping between steps. It returns after
// the last heal or when ctx is done; on a clean run every fault has
// healed.
func (p Plan) Execute(ctx context.Context, ctl *Controller, act Actions) {
	start := time.Now()
	for _, s := range timeline(p.Events) {
		if d := time.Until(start.Add(s.at)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return
			}
		}
		if ctx.Err() != nil {
			return
		}
		s.apply(ctl, act)
	}
}

// apply performs one step.
func (s step) apply(ctl *Controller, act Actions) {
	ev := s.ev
	if ev.Fault == failure.PFSDelay {
		if s.heal {
			ev.Delay = 0
		}
		if act.SetPFSDelay != nil {
			act.SetPFSDelay(ev.Delay)
		}
		ctl.Record(KindPFSDelay)
		return
	}
	if s.heal {
		switch ev.Fault {
		case failure.Crash:
			if act.Restart != nil {
				act.Restart(ev.Node)
			}
			ctl.Record(KindRestart)
		case failure.Latency:
			ctl.ClearLatencyNode(ev.Node)
		case failure.Blackhole:
			ctl.Unblackhole(ev.Node)
		default: // partition variants
			ctl.HealNode(ev.Node)
		}
		return
	}
	switch ev.Fault {
	case failure.Crash:
		if act.Crash != nil {
			act.Crash(ev.Node, ev.Kill)
		}
		ctl.Record(KindCrash)
	case failure.Partition:
		ctl.Isolate(ev.Node)
	case failure.AsymSend:
		ctl.CutOneWay(Wildcard, ev.Node) // records asym-partition itself
	case failure.AsymRecv:
		ctl.CutOneWay(ev.Node, Wildcard)
	case failure.Latency:
		ctl.SetLinkLatency(Wildcard, ev.Node, ev.Delay, ev.Jitter)
	case failure.Blackhole:
		ctl.Blackhole(ev.Node)
		ctl.Record(KindDialBlackhole + "-installed")
	case failure.ConnDrop:
		ctl.DropConns(ev.Node)
	}
}
