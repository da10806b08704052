package failure

import (
	"testing"
	"time"
)

func TestRandomBounds(t *testing.T) {
	p := Random(20, 5, 42)
	if len(p) != 20 {
		t.Fatalf("events = %d", len(p))
	}
	for _, e := range p {
		if e.Epoch < 1 || e.Epoch > 4 {
			t.Errorf("epoch %d out of [1,4]", e.Epoch)
		}
		if e.Frac < 0 || e.Frac >= 0.05 {
			t.Errorf("frac %v out of [0,0.05)", e.Frac)
		}
		if e.Node != "" || e.At != 0 || e.Kill || e.Fault != Crash || e.For != 0 {
			t.Errorf("random event %+v should be an untimed, unresponsive crash that never heals, victim deferred", e)
		}
	}
}

// TestRandomPlanDeterministic pins Random's output for a seed: the
// Fig 5(b) and extension CSVs regenerate byte-identical only while
// these stay put.
func TestRandomPlanDeterministic(t *testing.T) {
	want := []Event{
		{Epoch: 3, Frac: 0.03535},
		{Epoch: 2, Frac: 0.00605},
		{Epoch: 2, Frac: 0.02445},
		{Epoch: 3, Frac: 0.010100000000000001},
		{Epoch: 4, Frac: 0.0257},
	}
	got := Random(5, 5, 3)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRandomPanicsOnOneEpoch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Random(1, 1, 1)
}

func TestScheduleStepRule(t *testing.T) {
	s := NewSchedule([]Event{{Epoch: 1, Frac: 0.5, Node: "node-0002"}})
	if _, ok := s.Next(0, 0, 5, 10); ok {
		t.Error("fired in the wrong epoch")
	}
	if _, ok := s.Next(0, 1, 4, 10); ok {
		t.Error("fired before step int(Frac × steps)")
	}
	e, ok := s.Next(0, 1, 5, 10)
	if !ok || e.Node != "node-0002" {
		t.Fatalf("Next = %+v, %v; want the event at step 5", e, ok)
	}
	if _, ok := s.Next(0, 1, 5, 10); ok {
		t.Error("fired twice")
	}
}

func TestScheduleTimedFirst(t *testing.T) {
	s := NewSchedule([]Event{
		{Epoch: 1, Node: "step"},
		{At: 2 * time.Second, Node: "late"},
		{At: time.Second, Node: "early"},
	})
	if _, ok := s.Next(time.Second-1, 0, 0, 10); ok {
		t.Error("timed event fired before At")
	}
	for _, want := range []string{"early", "late", "step"} {
		e, ok := s.Next(3*time.Second, 1, 0, 10)
		if !ok || e.Node != want {
			t.Fatalf("Next = %+v, %v; want %q", e, ok, want)
		}
	}
	if _, ok := s.Next(3*time.Second, 1, 0, 10); ok {
		t.Error("an event fired twice")
	}
}
