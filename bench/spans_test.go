package main

import (
	"testing"
	"time"

	"repro/internal/trace"
)

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{120, 150}}, 70},
		{"siblings with a gap", []interval{{110, 130}, {160, 190}}, 50},
		{"overlapping siblings count once", []interval{{110, 150}, {140, 170}}, 40},
		{"nested sibling adds nothing", []interval{{110, 170}, {120, 130}}, 40},
		{"child clipped to the parent", []interval{{50, 120}, {190, 400}}, 70},
		{"child outside the parent", []interval{{300, 400}}, 100},
		{"children cover everything", []interval{{100, 160}, {160, 200}}, 0},
		{"unsorted input", []interval{{160, 190}, {110, 130}}, 50},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// A client fragment and the server fragment it caused, stitched by trace
// id: rpc.read's self time excludes server.read, server.read's excludes
// storage.read, and the shares add up to one.
func TestSelfTimesStitchesFragments(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	traces := []*trace.Trace{
		{ID: 7, Root: "client.read", Spans: []trace.SpanRecord{
			{ID: 3, Parent: 2, Name: "rpc.read", Start: at(2), Duration: us(16)},
			{ID: 2, Parent: 1, Name: "read.attempt", Start: at(1), Duration: us(18)},
			{ID: 1, Name: "client.read", Start: at(0), Duration: us(20)},
		}},
		{ID: 7, Root: "server.read", Remote: true, Spans: []trace.SpanRecord{
			{ID: 5, Parent: 4, Name: "storage.read", Start: at(8), Duration: us(3)},
			{ID: 4, Parent: 3, Name: "server.read", Start: at(6), Duration: us(6)},
		}},
	}
	m := metrics{}
	selfTimes(traces, m)
	for name, want := range map[string]float64{
		"client.read": 2, "read.attempt": 2, "rpc.read": 10, "server.read": 3, "storage": 3, "pfs.read": 0,
	} {
		if got := m["trace.self_us."+name]; got != want {
			t.Errorf("trace.self_us.%s = %v, want %v", name, got, want)
		}
	}
	var shares float64
	for _, name := range tracedSpans {
		shares += m["trace.share."+name]
	}
	if shares < 0.999 || shares > 1.001 {
		t.Errorf("shares sum to %v, want 1", shares)
	}
	if got := m["trace.share.rpc.read"]; got != 0.5 {
		t.Errorf("trace.share.rpc.read = %v, want 0.5 (10 of 20 µs)", got)
	}
}

func TestSpanLogNilWhenUntraced(t *testing.T) {
	var l *spanLog = newSpanLog(false, 8)
	l.add(spanRead, time.Now(), time.Microsecond) // must not panic
	l.reset()
	traced := newSpanLog(true, 8)
	traced.add(spanFlush, time.Unix(0, 5), 7)
	traced.add(spanFlush, time.Unix(0, 9), 9)
	traced.add(spanFlush, time.Unix(0, 9), 11)
	m := metrics{}
	callMetrics([]*spanLog{l, traced}, m)
	if got := m["trace.call_us.flush"]; got != 0.009 {
		t.Errorf("trace.call_us.flush = %v, want the 9 ns median", got)
	}
}
