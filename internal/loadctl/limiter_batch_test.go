package loadctl

import (
	"sync"
	"testing"
	"time"
)

func TestAcquireNTakesCostSlots(t *testing.T) {
	l := NewLimiter(8, 0, time.Millisecond)
	if !acquireN(l, 5) {
		t.Fatal("AcquireNWait(5) on an idle limiter failed")
	}
	if got := l.Inflight(); got != 5 {
		t.Fatalf("inflight=%d, want 5", got)
	}
	// 3 slots left: a 3-wide batch fits, a single more does not (queue 0).
	if !acquireN(l, 3) {
		t.Fatal("AcquireNWait(3) with 3 free slots failed")
	}
	if l.Acquire() {
		t.Fatal("Acquire succeeded on a full limiter")
	}
	l.ReleaseN(5)
	l.ReleaseN(3)
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight after release=%d, want 0", got)
	}
}

func TestAcquireNCostCappedAtLimit(t *testing.T) {
	l := NewLimiter(4, 0, time.Millisecond)
	// A batch wider than the whole limiter must still be admissible —
	// cost caps at the limit, and ReleaseN applies the same cap.
	if !acquireN(l, 100) {
		t.Fatal("over-wide batch not admitted on idle limiter")
	}
	if got := l.Inflight(); got != 4 {
		t.Fatalf("inflight=%d, want 4 (capped)", got)
	}
	l.ReleaseN(100)
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight after capped release=%d, want 0", got)
	}
}

func TestAcquireNTimeoutReleasesPartialClaim(t *testing.T) {
	l := NewLimiter(4, 4, 5*time.Millisecond)
	if !acquireN(l, 3) {
		t.Fatal("setup claim failed")
	}
	// Only 1 slot free: a 3-wide batch grabs it, waits, times out — and
	// must hand the partial claim back.
	if acquireN(l, 3) {
		t.Fatal("AcquireNWait should shed when slots never free")
	}
	if got := l.Inflight(); got != 3 {
		t.Fatalf("inflight=%d after shed, want 3 (partial claim returned)", got)
	}
	_, _, shed := l.Stats()
	if shed != 1 {
		t.Fatalf("shed=%d, want 1", shed)
	}
	l.ReleaseN(3)
}

func TestAcquireNWaitsForFreedSlots(t *testing.T) {
	l := NewLimiter(4, 4, time.Second)
	if !acquireN(l, 4) {
		t.Fatal("setup claim failed")
	}
	done := make(chan bool, 1)
	go func() { done <- acquireN(l, 2) }()
	time.Sleep(5 * time.Millisecond) // let the waiter queue
	l.ReleaseN(4)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("queued AcquireNWait shed despite freed slots")
		}
	case <-time.After(time.Second):
		t.Fatal("queued AcquireNWait never admitted")
	}
	l.ReleaseN(2)
}

func TestAcquireNOneIsAcquire(t *testing.T) {
	l := NewLimiter(2, 0, time.Millisecond)
	if !acquireN(l, 1) {
		t.Fatal("AcquireNWait(1) failed")
	}
	if got := l.Inflight(); got != 1 {
		t.Fatalf("inflight=%d, want 1", got)
	}
	l.ReleaseN(1)
}

// TestAcquireNInterleavedBatchesNoDeadlock: two batches each wanting
// more than half the limiter contend; timed release guarantees progress
// (no permanent mutual partial-claim deadlock).
func TestAcquireNInterleavedBatchesNoDeadlock(t *testing.T) {
	l := NewLimiter(8, 8, 2*time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if acquireN(l, 6) {
					l.ReleaseN(6)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("interleaved AcquireNWait batches deadlocked")
	}
	if got := l.Inflight(); got != 0 {
		t.Fatalf("leaked %d slots", got)
	}
}

// acquireN is AcquireNWait without the wait.
func acquireN(l *Limiter, cost int) bool {
	ok, _ := l.AcquireNWait(cost)
	return ok
}
