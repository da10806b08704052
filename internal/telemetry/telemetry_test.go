package telemetry

import (
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ftc_test_total")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("ftc_test_gauge")
	g.Add(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	// Same name+labels returns the same instance.
	if r.Counter("ftc_test_total") != c {
		t.Fatal("re-lookup returned a different counter")
	}
}

func TestLabelsIdentifySeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ftc_multi_total", "node", "n0")
	b := r.Counter("ftc_multi_total", "node", "n1")
	if a == b {
		t.Fatal("distinct labels must create distinct series")
	}
	// Label order must not matter.
	x := r.Counter("ftc_pair_total", "a", "1", "b", "2")
	y := r.Counter("ftc_pair_total", "b", "2", "a", "1")
	if x != y {
		t.Fatal("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ftc_clash_total")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("ftc_clash_total")
}

func TestFuncMetricsLatestWins(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("ftc_fn_total", func() int64 { return 1 })
	r.CounterFunc("ftc_fn_total", func() int64 { return 2 })
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d series, want 1", len(snap))
	}
	if snap[0].Value != 2 {
		t.Fatalf("func counter = %d, want latest-wins 2", snap[0].Value)
	}
}

func TestSnapshotShapes(t *testing.T) {
	r := NewRegistry()
	r.Counter("ftc_a_total").Add(3)
	r.Gauge("ftc_b").Add(-1)
	r.GaugeFunc("ftc_c", func() int64 { return 9 })
	r.Histogram("ftc_d_seconds").Observe(1000)
	snap := r.Snapshot()
	kinds := map[string]string{}
	for _, mv := range snap {
		kinds[mv.Name] = mv.Kind
	}
	want := map[string]string{
		"ftc_a_total":   "counter",
		"ftc_b":         "gauge",
		"ftc_c":         "gauge",
		"ftc_d_seconds": "histogram",
	}
	for n, k := range want {
		if kinds[n] != k {
			t.Errorf("%s kind = %q, want %q", n, kinds[n], k)
		}
	}
	for _, mv := range snap {
		if mv.Name == "ftc_d_seconds" {
			if mv.Hist == nil || mv.Hist.Count != 1 {
				t.Fatalf("histogram snapshot missing observation: %+v", mv.Hist)
			}
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	got := renderLabels([]string{"k", `a"b\c` + "\n"})
	if !strings.Contains(got, `a\"b\\c\n`) {
		t.Fatalf("label escaping wrong: %s", got)
	}
}
