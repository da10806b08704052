package storage

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// busyBeside runs n goroutines that are always runnable — 5 µs of work,
// then a yield, the shape of a request handler — until the returned stop
// is called. They yield because a goroutine that never does is only
// preempted by sysmon every 10 ms, which on a box with as many spinners
// as cores starves every other goroutine, the test's own included.
func busyBeside(n int) (stop func()) {
	var done atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				for t := time.Now(); time.Since(t) < 5*time.Microsecond; {
				}
				runtime.Gosched()
			}
		}()
	}
	return func() { done.Store(true); wg.Wait() }
}

// TestWaitAccuracy is the engine's reason to exist as an assertion: a
// modelled wait costs what it says. At the parent a 100 µs wait was a
// time.Sleep that took 1.13 ms (ratio 11.3), so the 1.25 ceiling fails
// there and has room here; the logged p50 and p99 are the figures of
// EXPERIMENTS.md's requested-vs-actual table.
func TestWaitAccuracy(t *testing.T) {
	for _, load := range []struct {
		name string
		busy int
	}{{"idle", 0}, {"beside 2 busy goroutines", 2}} {
		stop := busyBeside(load.busy)
		for _, d := range []time.Duration{100 * time.Microsecond, 500 * time.Microsecond, 3 * time.Millisecond} {
			took := make([]time.Duration, 200)
			for i := range took {
				start := time.Now()
				Wait(d)
				took[i] = time.Since(start)
			}
			sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
			p50, p99 := took[len(took)/2], took[len(took)*99/100]
			t.Logf("%s: Wait(%v) p50 %v (x%.3f) p99 %v (x%.3f)", load.name, d,
				p50, float64(p50)/float64(d), p99, float64(p99)/float64(d))
			if took[0] < d {
				t.Errorf("%s: Wait(%v) returned after %v: early", load.name, d, took[0])
			}
			// Under -race the detector's own cost sits inside every yield
			// of the engine; only "never early" is asserted there.
			if ratio := float64(p50) / float64(d); ratio > 1.25 && !testutil.RaceEnabled {
				t.Errorf("%s: Wait(%v) median %v is x%.2f the request, want <= 1.25", load.name, d, p50, ratio)
			}
		}
		stop()
	}
}

// withRetries runs a timing check up to five times and fails only if
// every attempt does: the bounds below are 25 % of a few milliseconds,
// which one stall of a shared machine (or the race detector) breaks,
// while a wrong completion order fails every time.
func withRetries(t *testing.T, check func() []string) {
	t.Helper()
	var failures []string
	for attempt := 0; attempt < 5; attempt++ {
		if failures = check(); len(failures) == 0 {
			return
		}
		t.Logf("attempt %d: %v", attempt, failures)
	}
	for _, f := range failures {
		t.Error(f)
	}
}

// readResult is one Read of a burst: the queue share it reported and
// when it completed, measured from the burst's release.
type readResult struct{ queued, done time.Duration }

// readBurst releases n Reads of d at once and returns them in admission
// order — on a queued device, the order of their queue shares.
func readBurst(d *Device, n int) []readResult {
	out := make([]readResult, n)
	release := make(chan struct{})
	var wg sync.WaitGroup
	var start time.Time // set before release closes
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			out[i].queued = d.Read(0)
			out[i].done = time.Since(start)
		}()
	}
	start = time.Now()
	close(release)
	wg.Wait()
	sort.Slice(out, func(i, j int) bool {
		if out[i].queued != out[j].queued {
			return out[i].queued < out[j].queued
		}
		return out[i].done < out[j].done
	})
	return out
}

// TestDeviceQueueWidth: completion instants are fixed at admission, so a
// width-1 device finishes eight concurrent reads of service s in
// admission order at s, 2s, … 8s, having queued each for one s more than
// the last, and a width-4 device overlaps four.
func TestDeviceQueueWidth(t *testing.T) {
	const s = 10 * time.Millisecond // long enough that a scheduling hiccup stays inside the 25 %
	for _, width := range []int{1, 4} {
		withRetries(t, func() (failures []string) {
			for i, r := range readBurst(ConstantDevice(s, width), 8) {
				ahead := time.Duration(i / width) // service times queued behind
				if r.queued > ahead*s || r.queued < ahead*s-s/4 {
					failures = append(failures, fmt.Sprintf("width %d: read %d queued %v, want %v", width, i, r.queued, ahead*s))
				}
				if want := (ahead + 1) * s; r.done < want || r.done > want+want/4 {
					failures = append(failures, fmt.Sprintf("width %d: read %d completed at %v, want %v (+25%%)", width, i, r.done, want))
				}
			}
			return failures
		})
	}
}

// TestDeviceModels: each device gives the service time of the model it
// wraps, and an unqueued PFS one is fed the reads in flight.
func TestDeviceModels(t *testing.T) {
	nvme, pfs := FrontierNVMe(), FrontierOrion()
	if got, want := nvme.Device().ReadTime(1<<20, 1), nvme.ReadTime(1<<20); got != want {
		t.Errorf("NVMe device ReadTime = %v, model says %v", got, want)
	}
	if got, want := newDevice(0, pfs.readTime).ReadTime(1<<20, 64), pfs.readTime(1<<20, 64); got != want {
		t.Errorf("PFS device ReadTime = %v, model says %v", got, want)
	}
	if got := ConstantDevice(time.Millisecond, 4).ReadTime(1<<30, 9); got != time.Millisecond {
		t.Errorf("constant device ReadTime = %v", got)
	}
	// A serialized metadata server: the k-th of three concurrent opens
	// queues behind k ops, and nothing else queues (the device is unqueued).
	pfs.MetadataOpTime, pfs.MetadataParallelism = 5*time.Millisecond, 1
	withRetries(t, func() (failures []string) {
		for i, r := range readBurst(newDevice(0, pfs.readTime), 3) {
			want := time.Duration(i+1) * pfs.MetadataOpTime
			if r.queued != 0 || r.done < want || r.done > want+want/4 {
				failures = append(failures, fmt.Sprintf("PFS device, read %d of 3 at once: queued %v, completed at %v, want 0 and %v", i, r.queued, r.done, want))
			}
		}
		return failures
	})
}

// TestWaitEngineStopsWhenIdle: the engine goroutine exists only while
// someone waits — gone after the last waiter returns (the leak check,
// which is also what Cluster.Close's goroutine gate sees), and started
// again by the next burst.
func TestWaitEngineStopsWhenIdle(t *testing.T) {
	testutil.CheckGoroutinesWithin(t, 0)
	running := func() bool {
		engine.mu.Lock()
		defer engine.mu.Unlock()
		return engine.running
	}
	for burst := 0; burst < 2; burst++ {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				Wait(time.Duration(i+1) * 200 * time.Microsecond)
			}()
		}
		wg.Wait()
		// The last wake-up precedes the engine's exit by one trip round
		// its loop; yield until it has made it.
		for deadline := time.Now().Add(time.Second); running() && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if running() {
			t.Fatalf("burst %d: engine still running with nobody waiting", burst)
		}
	}
}

// TestPFSDeviceAppliesToNextGet: a delay raised or cleared applies
// to the next Get, not to one already waiting; and Gets racing the
// setter are clean under -race.
func TestPFSDeviceAppliesToNextGet(t *testing.T) {
	p := NewPFS()
	p.Put("f", []byte("x"))
	if p.device.Load() != nil {
		t.Fatal("fresh PFS has a read delay")
	}
	const slow, fast = 200 * time.Millisecond, time.Millisecond
	p.SetReadDelay(slow)
	if d := p.device.Load().ReadTime(0, 1); d != slow {
		t.Fatalf("read delay = %v, want %v", d, slow)
	}
	slowDone := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		p.Get("f")
		slowDone <- time.Since(start)
	}()
	for p.device.Load().inflight.Load() == 0 { // until the slow Get is admitted
		runtime.Gosched()
	}
	p.SetReadDelay(fast)
	t0 := time.Now()
	p.Get("f")
	if d := time.Since(t0); d < fast {
		t.Errorf("Get after lowering the delay to %v took %v", fast, d)
	}
	p.SetReadDelay(0)
	p.Get("f")
	select {
	case d := <-slowDone:
		t.Fatalf("two later Gets, at %v and at no delay, took longer than the one admitted at %v (%v)", fast, slow, d)
	default:
	}
	if d := <-slowDone; d < slow {
		t.Errorf("Get admitted at %v returned after %v: a later SetReadDelay reached it", slow, d)
	}

	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%8 == 0 {
				p.SetReadDelay(time.Duration(i) * 10 * time.Microsecond)
			}
			if _, err := p.Get("f"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if reads, _, _ := p.Counters(); reads != 67 {
		t.Errorf("reads = %d, want 67", reads)
	}
}
