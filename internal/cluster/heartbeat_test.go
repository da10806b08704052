package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// completedRounds returns how many probe rounds have completed.
func (h *Heartbeat) completedRounds() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rounds
}

// fakePinger fails for nodes in the dead set.
type fakePinger struct {
	mu    sync.Mutex
	dead  map[NodeID]bool
	calls map[NodeID]int
}

func newFakePinger() *fakePinger {
	return &fakePinger{dead: make(map[NodeID]bool), calls: make(map[NodeID]int)}
}

func (p *fakePinger) kill(n NodeID) {
	p.mu.Lock()
	p.dead[n] = true
	p.mu.Unlock()
}

func (p *fakePinger) Ping(_ context.Context, n NodeID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls[n]++
	if p.dead[n] {
		return errors.New("probe timeout")
	}
	return nil
}

func TestHeartbeatDetectsDeadNode(t *testing.T) {
	tr := NewTracker(members(4), 2)
	p := newFakePinger()
	declared := make(chan NodeID, 1)
	tr.OnFailure(func(n NodeID) { declared <- n })

	hb := NewHeartbeat(tr, p, HeartbeatConfig{Interval: 5 * time.Millisecond})
	p.kill("node-02")
	hb.Start()
	defer hb.Stop()

	select {
	case n := <-declared:
		if n != "node-02" {
			t.Errorf("declared %s, want node-02", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("heartbeat never declared the dead node")
	}
	if tr.IsAlive("node-02") {
		t.Error("node still alive after declaration")
	}
	// Healthy nodes stay alive.
	for _, n := range []NodeID{"node-00", "node-01", "node-03"} {
		if !tr.IsAlive(n) {
			t.Errorf("%s wrongly declared", n)
		}
	}
}

func TestHeartbeatSkipsDeclaredNodes(t *testing.T) {
	tr := NewTracker(members(2), 1)
	p := newFakePinger()
	hb := NewHeartbeat(tr, p, HeartbeatConfig{Interval: 5 * time.Millisecond})
	p.kill("node-01")
	hb.Start()
	// Wait for detection plus several more rounds.
	deadline := time.After(2 * time.Second)
	for tr.IsAlive("node-01") {
		select {
		case <-deadline:
			t.Fatal("never detected")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	p.mu.Lock()
	callsAtDetection := p.calls["node-01"]
	p.mu.Unlock()
	for hb.completedRounds() < 20 {
		time.Sleep(time.Millisecond)
	}
	hb.Stop()
	p.mu.Lock()
	callsAfter := p.calls["node-01"]
	p.mu.Unlock()
	// Dead nodes drop out of Alive() and must not keep being probed
	// (allow one in-flight round of slack).
	if callsAfter > callsAtDetection+2 {
		t.Errorf("dead node probed %d more times after declaration", callsAfter-callsAtDetection)
	}
}

func TestHeartbeatTransientBlipNoDeclaration(t *testing.T) {
	tr := NewTracker(members(1), 3)
	p := newFakePinger()
	hb := NewHeartbeat(tr, p, HeartbeatConfig{})
	// Driven round by round, so the blip is exactly one probe however
	// loaded the machine is: one failed round, then recovery. With
	// limit 3 nothing declares.
	p.kill("node-00")
	hb.probeRound(context.Background())
	p.mu.Lock()
	p.dead["node-00"] = false
	p.mu.Unlock()
	for i := 0; i < 5; i++ {
		hb.probeRound(context.Background())
	}
	if got := p.calls["node-00"]; got != 6 {
		t.Errorf("node probed %d times in 6 rounds", got)
	}
	if !tr.IsAlive("node-00") {
		t.Error("transient blip should not declare failure")
	}
}

func TestHeartbeatStartStopIdempotent(t *testing.T) {
	tr := NewTracker(members(2), 2)
	hb := NewHeartbeat(tr, newFakePinger(), HeartbeatConfig{Interval: time.Millisecond})
	hb.Stop() // before start: no-op
	hb.Start()
	hb.Start() // double start: no-op
	for hb.completedRounds() < 3 {
		time.Sleep(time.Millisecond)
	}
	hb.Stop()
	hb.Stop() // double stop: no-op
	rounds := hb.completedRounds()
	time.Sleep(10 * time.Millisecond)
	if hb.completedRounds() != rounds {
		t.Error("probing continued after Stop")
	}
}

func TestHeartbeatDefaults(t *testing.T) {
	hb := NewHeartbeat(NewTracker(members(1), 1), newFakePinger(), HeartbeatConfig{})
	if hb.cfg.Interval != 500*time.Millisecond {
		t.Errorf("interval = %v", hb.cfg.Interval)
	}
	if hb.cfg.Timeout != 250*time.Millisecond {
		t.Errorf("timeout = %v", hb.cfg.Timeout)
	}
}

// blockingPinger holds every probe until release closes, recording the
// most probes it ever saw in flight at once.
type blockingPinger struct {
	release chan struct{}

	mu             sync.Mutex
	inflight, peak int
	calls          int
}

func (p *blockingPinger) Ping(context.Context, NodeID) error {
	p.mu.Lock()
	p.calls++
	p.inflight++
	p.peak = max(p.peak, p.inflight)
	p.mu.Unlock()
	<-p.release
	p.mu.Lock()
	p.inflight--
	p.mu.Unlock()
	return nil
}

func (p *blockingPinger) snapshot() (inflight, peak, calls int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight, p.peak, p.calls
}

// TestHeartbeatBoundsProbesInFlight: a round over more members than
// heartbeatParallelism never has more than that many probes in flight,
// and still probes every member.
func TestHeartbeatBoundsProbesInFlight(t *testing.T) {
	const n = 3 * heartbeatParallelism
	p := &blockingPinger{release: make(chan struct{})}
	hb := NewHeartbeat(NewTracker(members(n), 1), p, HeartbeatConfig{Timeout: time.Minute})
	done := make(chan struct{})
	go func() {
		hb.probeRound(context.Background())
		close(done)
	}()
	deadline := time.After(2 * time.Second)
	for {
		if inflight, _, _ := p.snapshot(); inflight >= heartbeatParallelism {
			break
		}
		select {
		case <-deadline:
			t.Fatal("the round never reached its probe bound")
		case <-time.After(time.Millisecond):
		}
	}
	// Give an unbounded round time to launch the rest of its probes.
	time.Sleep(20 * time.Millisecond)
	_, peak, _ := p.snapshot()
	close(p.release)
	<-done
	if peak != heartbeatParallelism {
		t.Errorf("peak probes in flight = %d, want %d", peak, heartbeatParallelism)
	}
	if _, _, calls := p.snapshot(); calls != n {
		t.Errorf("round probed %d of %d members", calls, n)
	}
}

// TestHeartbeatJitterVariesIntervals: each wait lands in the
// ±heartbeatJitter (10 %) band around Interval, and the waits
// differ.
func TestHeartbeatJitterVariesIntervals(t *testing.T) {
	const interval = 100 * time.Millisecond
	hb := NewHeartbeat(NewTracker(members(1), 1), newFakePinger(),
		HeartbeatConfig{Interval: interval})
	lo, hi := 90*time.Millisecond, 110*time.Millisecond
	seen := make(map[time.Duration]bool)
	for i := 0; i < 64; i++ {
		w := hb.nextWait()
		if w < lo || w > hi {
			t.Fatalf("wait %v outside jitter band [%v, %v]", w, lo, hi)
		}
		seen[w] = true
	}
	if len(seen) < 2 {
		t.Error("64 jittered waits were all identical — probes would stay synchronized")
	}
}

func TestHeartbeatRevivesAfterThreshold(t *testing.T) {
	tr := NewTracker(members(2), 3) // the limit is also the revive streak
	p := newFakePinger()
	revived := make(chan NodeID, 4)
	hb := NewHeartbeat(tr, p, HeartbeatConfig{
		Interval: 3 * time.Millisecond,
		OnRevive: func(n NodeID) {
			tr.Revive(n)
			revived <- n
		},
	})
	p.kill("node-01")
	hb.Start()
	defer hb.Stop()

	deadline := time.After(2 * time.Second)
	for tr.IsAlive("node-01") {
		select {
		case <-deadline:
			t.Fatal("never detected the dead node")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// Node restarts: revival probes must see Limit consecutive successes
	// and then fire OnRevive exactly once.
	p.mu.Lock()
	p.dead["node-01"] = false
	callsAtRestart := p.calls["node-01"]
	p.mu.Unlock()
	select {
	case n := <-revived:
		if n != "node-01" {
			t.Fatalf("revived %s, want node-01", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnRevive never fired")
	}
	if !tr.IsAlive("node-01") {
		t.Error("node not alive after OnRevive → Revive")
	}
	p.mu.Lock()
	probes := p.calls["node-01"] - callsAtRestart
	p.mu.Unlock()
	if probes < 3 {
		t.Errorf("OnRevive fired after %d post-restart probes, want >= threshold 3", probes)
	}
	// No duplicate firings while the node stays healthy.
	time.Sleep(30 * time.Millisecond)
	select {
	case n := <-revived:
		t.Errorf("OnRevive fired again for %s after revival", n)
	default:
	}
}

// TestHeartbeatWithoutOnReviveLeavesFailedNodes: with no OnRevive there
// is no recovery probing — a declared node is never pinged again and
// stays declared after it comes back.
func TestHeartbeatWithoutOnReviveLeavesFailedNodes(t *testing.T) {
	tr := NewTracker(members(1), 1)
	p := newFakePinger()
	hb := NewHeartbeat(tr, p, HeartbeatConfig{Interval: 2 * time.Millisecond})
	p.kill("node-00")
	hb.Start()
	defer hb.Stop()
	deadline := time.After(2 * time.Second)
	for tr.IsAlive("node-00") {
		select {
		case <-deadline:
			t.Fatal("never detected")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	p.mu.Lock()
	p.dead["node-00"] = false
	calls := p.calls["node-00"]
	p.mu.Unlock()
	rounds := hb.completedRounds()
	for hb.completedRounds() < rounds+5 {
		time.Sleep(time.Millisecond)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.calls["node-00"] > calls+1 { // one probe may have been in flight
		t.Errorf("declared node probed %d more times without OnRevive", p.calls["node-00"]-calls)
	}
	if tr.IsAlive("node-00") {
		t.Error("declared node revived without OnRevive")
	}
}

func TestHeartbeatFlappingNodeResetsStreak(t *testing.T) {
	// A streak of 8 is out of reach of the ~2 probes an up phase lasts.
	tr := NewTracker(members(1), 8)
	p := newFakePinger()
	var fired int
	var firedMu sync.Mutex
	hb := NewHeartbeat(tr, p, HeartbeatConfig{
		Interval: 2 * time.Millisecond,
		OnRevive: func(NodeID) {
			firedMu.Lock()
			fired++
			firedMu.Unlock()
		},
	})
	p.kill("node-00")
	hb.Start()
	deadline := time.After(2 * time.Second)
	for tr.IsAlive("node-00") {
		select {
		case <-deadline:
			t.Fatal("never detected")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// Flap: alternate the node up and down across rounds.
	for i := 0; i < 10; i++ {
		p.mu.Lock()
		p.dead["node-00"] = i%2 == 0
		p.mu.Unlock()
		time.Sleep(4 * time.Millisecond)
	}
	hb.Stop()
	firedMu.Lock()
	defer firedMu.Unlock()
	if fired != 0 {
		t.Errorf("OnRevive fired %d times below the streak threshold", fired)
	}
	if tr.IsAlive("node-00") {
		t.Error("flapping node was resurrected without OnRevive")
	}
}
