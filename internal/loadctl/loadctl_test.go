package loadctl

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

func TestNodeLatencyPickPrefersFasterNode(t *testing.T) {
	nodes := []cluster.NodeID{"a", "b"}
	l := NewNodeLatency(nodes)
	for i := 0; i < 32; i++ {
		l.Observe("a", 1*time.Millisecond)
		l.Observe("b", 50*time.Millisecond)
	}
	picksA := 0
	for i := 0; i < 200; i++ {
		if l.Pick(nodes) == "a" {
			picksA++
		}
	}
	// With two candidates, p2c always compares a vs b and must always
	// choose the faster one once both EWMAs are established.
	if picksA != 200 {
		t.Fatalf("picked fast node %d/200 times", picksA)
	}
}

func TestNodeLatencyExploresUnobservedNodes(t *testing.T) {
	nodes := []cluster.NodeID{"a", "b", "c"}
	l := NewNodeLatency(nodes)
	l.Observe("a", 40*time.Millisecond)
	seen := make(map[cluster.NodeID]int)
	for i := 0; i < 500; i++ {
		seen[l.Pick(nodes)]++
	}
	if seen["b"] == 0 || seen["c"] == 0 {
		t.Fatalf("unobserved nodes starved: %+v", seen)
	}
}

func TestNodeLatencySingleCandidate(t *testing.T) {
	l := NewNodeLatency([]cluster.NodeID{"a"})
	if got := l.Pick([]cluster.NodeID{"a"}); got != "a" {
		t.Fatalf("Pick single = %q", got)
	}
	if got := l.Pick(nil); got != "" {
		t.Fatalf("Pick empty = %q", got)
	}
}

func TestHedgeWarmupAndClamp(t *testing.T) {
	h := NewHedge()
	if _, ok := h.Delay(); ok {
		t.Fatal("hedge active before warmup")
	}
	// Observe is sampled 1-in-hedgeSample, so warming the estimator takes
	// hedgeSample times the warmup count. Samples at 100µs: raw p99 is
	// below the hedgeMin floor → clamped up.
	for i := 0; i < 4*hedgeSample*hedgeWarmup; i++ {
		h.Observe(100 * time.Microsecond)
	}
	d, ok := h.Delay()
	if !ok {
		t.Fatal("hedge not active after warmup")
	}
	if d != hedgeMin {
		t.Fatalf("delay %v, want clamped to the %v floor", d, hedgeMin)
	}
	// Now samples at 1s: p99 grows past the hedgeMax ceiling → clamped down.
	for i := 0; i < 4*hedgeSample*hedgeWarmup; i++ {
		h.Observe(time.Second)
	}
	d, _ = h.Delay()
	if d != hedgeMax {
		t.Fatalf("delay %v, want clamped to the %v ceiling", d, hedgeMax)
	}
}

func TestLimiterAdmitsUpToLimit(t *testing.T) {
	l := NewLimiter(2, 0, time.Millisecond)
	if !l.Acquire() || !l.Acquire() {
		t.Fatal("limiter refused within-limit requests")
	}
	if l.Acquire() {
		t.Fatal("limiter admitted past limit with zero queue")
	}
	if l.Inflight() != 2 {
		t.Fatalf("inflight %d, want 2", l.Inflight())
	}
	l.Release()
	if !l.Acquire() {
		t.Fatal("limiter refused after a release")
	}
	_, _, shed := l.Stats()
	if shed != 1 {
		t.Fatalf("shed count %d, want 1", shed)
	}
}

func TestLimiterQueueWaitsForSlot(t *testing.T) {
	l := NewLimiter(1, 1, 500*time.Millisecond)
	if !l.Acquire() {
		t.Fatal("first acquire failed")
	}
	got := make(chan bool, 1)
	go func() { got <- l.Acquire() }()
	time.Sleep(20 * time.Millisecond) // let the waiter queue up
	l.Release()
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("queued request shed despite a freed slot")
		}
	case <-time.After(time.Second):
		t.Fatal("queued request never acquired")
	}
	_, queued, _ := l.Stats()
	if queued != 1 {
		t.Fatalf("queued count %d, want 1", queued)
	}
}

func TestLimiterQueueTimeoutSheds(t *testing.T) {
	l := NewLimiter(1, 4, 10*time.Millisecond)
	if !l.Acquire() {
		t.Fatal("first acquire failed")
	}
	start := time.Now()
	if l.Acquire() {
		t.Fatal("queued request admitted with no free slot")
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("shed after %v, before the %v queue wait", elapsed, 10*time.Millisecond)
	}
}

func TestLimiterDisabled(t *testing.T) {
	if NewLimiter(0, 4, time.Millisecond) != nil {
		t.Fatal("limit<=0 must return the nil disabled sentinel")
	}
}

func TestLimiterConcurrentChurn(t *testing.T) {
	l := NewLimiter(4, 4, time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if l.Acquire() {
					l.Release()
				}
			}
		}()
	}
	wg.Wait()
	if l.Inflight() != 0 {
		t.Fatalf("slots leaked: inflight %d", l.Inflight())
	}
	admitted, _, shed := l.Stats()
	if admitted+shed == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestControllerMarkPushedAndInvalidate(t *testing.T) {
	c := New(Config{}, []cluster.NodeID{"a", "b"})
	if !c.MarkPushed("k") {
		t.Fatal("first MarkPushed returned false")
	}
	if c.MarkPushed("k") {
		t.Fatal("second MarkPushed returned true")
	}
	// Every won whole-file race on a hot key asks again: a pushed key
	// answers from a Load, which allocates nothing.
	key := string([]byte("data/hot"))
	c.MarkPushed(key)
	if n := testing.AllocsPerRun(100, func() { c.MarkPushed(key) }); n != 0 {
		t.Errorf("MarkPushed on a pushed key: %v allocs, want 0", n)
	}
	c.InvalidateReplicas()
	if !c.MarkPushed("k") {
		t.Fatal("MarkPushed after invalidation returned false")
	}
	// Racing first callers: exactly one is told to push.
	var wg sync.WaitGroup
	var mu sync.Mutex
	firsts := 0
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c.MarkPushed("race") {
				mu.Lock()
				firsts++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firsts != 1 {
		t.Errorf("%d racing callers were first to push, want 1", firsts)
	}
	snap := c.DebugSnapshot()
	if _, ok := snap["top_keys"]; !ok {
		t.Fatalf("debug snapshot missing hot-key table: %v", snap)
	}
}
