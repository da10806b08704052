package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestP2AgainstExactUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		e := NewP2Quantile(p)
		xs := make([]float64, 0, 20000)
		for i := 0; i < 20000; i++ {
			x := rng.Float64() * 100
			e.Add(x)
			xs = append(xs, x)
		}
		exact := Percentile(xs, p*100)
		got := e.Value()
		if math.Abs(got-exact) > 2.0 { // 2% of range on uniform data
			t.Errorf("p=%.2f: P² = %.2f, exact = %.2f", p, got, exact)
		}
	}
}

func TestP2AgainstExactLognormal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewP2Quantile(0.95)
	xs := make([]float64, 0, 30000)
	for i := 0; i < 30000; i++ {
		x := math.Exp(rng.NormFloat64())
		e.Add(x)
		xs = append(xs, x)
	}
	exact := Percentile(xs, 95)
	if rel := math.Abs(e.Value()-exact) / exact; rel > 0.08 {
		t.Errorf("p95 = %.3f, exact = %.3f (rel err %.3f)", e.Value(), exact, rel)
	}
}

func TestP2SmallSamples(t *testing.T) {
	e := NewP2Quantile(0.5)
	if e.Value() != 0 || e.N() != 0 {
		t.Error("empty estimator should report 0")
	}
	for _, x := range []float64{10, 20, 30} {
		e.Add(x)
	}
	if e.N() != 3 {
		t.Errorf("n = %d", e.N())
	}
	// Exact small-sample median.
	if e.Value() != 20 {
		t.Errorf("median of 3 = %v, want 20", e.Value())
	}
}

func TestP2MonotoneInvariant(t *testing.T) {
	// Marker heights must stay sorted throughout a long stream.
	rng := rand.New(rand.NewSource(3))
	e := NewP2Quantile(0.9)
	for i := 0; i < 50000; i++ {
		e.Add(rng.ExpFloat64() * 1000)
		if e.n >= 5 {
			for j := 1; j < 5; j++ {
				if e.q[j] < e.q[j-1] {
					t.Fatalf("markers unsorted at step %d: %v", i, e.q)
				}
			}
		}
	}
}

func TestP2PanicsOnBadQuantile(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewP2Quantile(%v) should panic", p)
				}
			}()
			NewP2Quantile(p)
		}()
	}
}

func BenchmarkP2Add(b *testing.B) {
	e := NewP2Quantile(0.95)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Add(xs[i&1023])
	}
}
