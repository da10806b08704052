// Package failure is the one fault-injection schedule of the
// reproduction, read by the trainsim DES, the live dltrain trainer and
// the chaos harness. It mirrors the paper's §V-A.3 protocol: node
// failures strike at random points strictly after the first epoch (so
// the cache is fully populated), with both timing and victim randomized;
// the artifact did this with `scontrol update NodeName=<n> State=DRAIN`.
//
// Both trainers step through (epoch, step) boundaries and ask their
// Schedule at each one whether an event is due, so a plan fires by the
// same rule in virtual time and on a live cluster. The chaos harness
// fires timed events on the wall clock and heals each after its For.
package failure

import (
	"time"

	"repro/internal/xhash"
)

// Fault is what an Event does. The zero value is a crash, the only
// fault the trainers fire.
type Fault uint8

// Faults. Every kind but Crash and PFSDelay acts on the links to Node.
const (
	Crash     Fault = iota // the node goes down: killed if Kill, else silent
	Partition              // Node cut off from every endpoint, both ways
	AsymSend               // frames toward Node dropped (requests lost)
	AsymRecv               // frames from Node dropped (it works, nobody hears it)
	Latency                // Delay ± Jitter on both directions of Node's links
	Blackhole              // dials to Node hang until they time out
	ConnDrop               // Node's open connections killed; instantaneous
	PFSDelay               // Delay added to every PFS read, fleet-wide (Node "")
)

var faultNames = [...]string{"crash", "partition", "asym-send", "asym-recv",
	"latency", "blackhole", "conn-drop", "pfs-delay"}

// String implements fmt.Stringer.
func (f Fault) String() string {
	if int(f) < len(faultNames) {
		return faultNames[f]
	}
	return "unknown"
}

// Event is one planned fault. The trainers read At, Epoch, Frac, Node
// and Kill and fire only crashes, which never heal. The chaos executor
// reads At, Node, Fault, Kill, For, Delay and Jitter.
type Event struct {
	// At, when positive, fires the failure at the first step boundary at
	// or after it: virtual time in the DES, time since Run began in the
	// live trainer, time since the plan started under chaos.
	At time.Duration
	// Otherwise the failure fires in epoch Epoch (0-based) at the
	// boundary before step int(Frac × steps), 0 ≤ Frac < 1.
	Epoch int
	Frac  float64
	// Node names the victim (node-%04d); "" picks a live victim at fire
	// time.
	Node string
	// Kill closes the node and its connections outright; false leaves it
	// up but silent.
	Kill bool
	// Fault is the kind of fault; zero is a crash.
	Fault Fault
	// For is how long the fault lasts: it heals (a crash restarts) at
	// At+For. 0 never heals.
	For time.Duration
	// Delay sizes a Latency or PFSDelay fault; Jitter only Latency.
	Delay, Jitter time.Duration
}

// Random builds the paper's Fig 5(b) plan: count single-node failures at
// random points strictly after the first epoch, random victims.
// Deterministic for a given seed; epochs must be at least 2.
func Random(count, epochs int, seed int64) []Event {
	state := uint64(seed)*2654435761 + 1
	out := make([]Event, count)
	for i := range out {
		// Epochs 1..epochs-1 (0-based), uniformly. Fractions are
		// early-in-epoch: the artifact arms its SLURM DRAIN at epoch
		// boundaries, so the strike lands shortly after an epoch starts.
		// (This is also what keeps rollback redo small enough to match
		// the paper's published overheads — see EXPERIMENTS.md.)
		epoch := 1 + int(xhash.SplitMix64(&state)%uint64(epochs-1))
		frac := float64(xhash.SplitMix64(&state)%1000) / 1000 * 0.05
		out[i] = Event{Epoch: epoch, Frac: frac}
	}
	return out
}

// Schedule fires a plan's events, each at most once.
type Schedule struct {
	events []Event
	fired  []bool
}

// NewSchedule returns a schedule over events, none fired yet.
func NewSchedule(events []Event) *Schedule {
	return &Schedule{events: events, fired: make([]bool, len(events))}
}

// Next returns the next unfired event due at the boundary reached at
// time now, before the given step of an epoch of steps steps, and marks
// it fired. A timed event is due once now ≥ At, and due timed events go
// first, earliest At first; any other event is due when epoch == Epoch
// and step == int(Frac × steps).
func (s *Schedule) Next(now time.Duration, epoch, step, steps int) (Event, bool) {
	due := -1
	for i, e := range s.events {
		if !s.fired[i] && e.At > 0 && now >= e.At && (due < 0 || e.At < s.events[due].At) {
			due = i
		}
	}
	for i := 0; due < 0 && i < len(s.events); i++ {
		e := s.events[i]
		if !s.fired[i] && e.At <= 0 && e.Epoch == epoch && step == int(e.Frac*float64(steps)) {
			due = i
		}
	}
	if due < 0 {
		return Event{}, false
	}
	s.fired[due] = true
	return s.events[due], true
}
