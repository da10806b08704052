package sim

import (
	"testing"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []int
	e.At(30*time.Millisecond, func() { got = append(got, 3) })
	e.At(10*time.Millisecond, func() { got = append(got, 1) })
	e.At(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("final time = %v", e.Now())
	}
	if len(e.events) != 0 {
		t.Errorf("pending = %d", len(e.events))
	}
}

func TestEqualTimestampsStableOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("unstable order at %d: %v", i, got)
		}
	}
}

func TestEventsScheduledFromCallbacks(t *testing.T) {
	e := New()
	var ticks []time.Duration
	var tick func()
	tick = func() {
		ticks = append(ticks, e.Now())
		if len(ticks) < 5 {
			e.After(10*time.Millisecond, tick)
		}
	}
	e.After(10*time.Millisecond, tick)
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i, at := range ticks {
		want := time.Duration(i+1) * 10 * time.Millisecond
		if at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Error("Step on empty queue should report false")
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.At(time.Millisecond, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.After(-time.Second, func() {})
}

func TestZeroDelaySelfScheduleTerminates(t *testing.T) {
	// Zero-delay events at the same timestamp still drain in FIFO order.
	e := New()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < 100 {
			e.After(0, fn)
		}
	}
	e.After(0, fn)
	e.Run()
	if n != 100 {
		t.Errorf("n = %d", n)
	}
	if e.Now() != 0 {
		t.Errorf("now = %v, want 0", e.Now())
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	var fn func()
	i := 0
	fn = func() {
		i++
		if i < b.N {
			e.After(time.Microsecond, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(time.Microsecond, fn)
	e.Run()
}
