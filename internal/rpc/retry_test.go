package rpc

import (
	"context"
	"testing"
	"time"
)

func TestRetryPolicyDefaults(t *testing.T) {
	if got := (RetryPolicy{}).Retries(); got != 2 {
		t.Errorf("Retries() = %d, want 2", got)
	}
}

// TestBackoffGrowsAndCaps checks every attempt's delay against the
// schedule: within ±50 % of min(2 ms·2^a, 100 ms).
func TestBackoffGrowsAndCaps(t *testing.T) {
	var p RetryPolicy
	for attempt := 0; attempt < 10; attempt++ {
		nominal := min(2*time.Millisecond<<attempt, 100*time.Millisecond)
		for i := 0; i < 32; i++ {
			if got := p.Backoff(attempt); got < nominal/2 || got > nominal*3/2 {
				t.Fatalf("Backoff(%d) = %v, want within ±50%% of %v", attempt, got, nominal)
			}
		}
	}
	// Deep attempts must not shift-overflow into negatives.
	for i := 0; i < 32; i++ {
		if got := p.Backoff(200); got < 50*time.Millisecond || got > 150*time.Millisecond {
			t.Fatalf("Backoff(200) = %v, want the 100ms cap ±50%%", got)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	seen := make(map[time.Duration]bool)
	for i := 0; i < 128; i++ {
		seen[(RetryPolicy{}).Backoff(0)] = true
	}
	if len(seen) < 2 {
		t.Error("128 jittered backoffs were all identical")
	}
}

func TestRetrySleepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Attempt 200 waits at least 50ms: only the cancellation can end it
	// at once.
	if err := (RetryPolicy{}).Sleep(ctx, 200); err != context.Canceled {
		t.Errorf("Sleep returned %v, want context.Canceled", err)
	}
}

func TestRetrySleepCompletes(t *testing.T) {
	if err := (RetryPolicy{}).Sleep(context.Background(), 0); err != nil {
		t.Errorf("Sleep = %v", err)
	}
}

func TestTCPDialTimeoutBounded(t *testing.T) {
	// 192.0.2.0/24 (TEST-NET-1) is reserved and unroutable: the SYN is
	// silently dropped, exactly the black-hole DefaultDialTimeout must
	// bound.
	start := time.Now()
	_, err := TCPNetwork{}.Dial("192.0.2.1:9")
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("unroutable address unexpectedly connected (unusual network namespace)")
	}
	if elapsed > 5*time.Second {
		t.Errorf("black-holed dial took %v — timeout not applied", elapsed)
	}
}

func TestTCPDialTimeoutDefault(t *testing.T) {
	// Every TCP dial applies DefaultDialTimeout rather than the kernel's
	// multi-minute connect timeout; it must stay a small positive bound.
	// The behavioral bound is covered above.
	if DefaultDialTimeout <= 0 || DefaultDialTimeout > 5*time.Second {
		t.Errorf("DefaultDialTimeout = %v, want a small positive bound", DefaultDialTimeout)
	}
}
