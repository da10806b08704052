package workload

import (
	"math"
	"testing"
)

func TestZipfUniformAtZeroExponent(t *testing.T) {
	const n, draws = 16, 160000
	z := NewZipf(0, n, 1)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.15 {
			t.Fatalf("index %d drawn %d times, want ~%.0f (uniform)", i, c, want)
		}
	}
}

func TestZipfSkewConcentratesOnHead(t *testing.T) {
	const n, draws = 512, 200000
	z := NewZipf(1.1, n, 7)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	head := float64(counts[0]) / draws
	if want := z.cum[0] / z.cum[n-1]; math.Abs(head-want) > 0.03 {
		t.Fatalf("head share %.3f, want ~%.3f", head, want)
	}
	if counts[0] <= counts[n-1]*10 {
		t.Fatalf("head %d not dominating tail %d", counts[0], counts[n-1])
	}
}

func TestZipfSharesSumToOne(t *testing.T) {
	const s, n = 1.3, 64
	z := NewZipf(s, n, 0)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s) / z.cum[n-1]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestZipfFractionalExponent(t *testing.T) {
	// rand.Zipf rejects s <= 1; ours must handle it.
	z := NewZipf(0.9, 100, 3)
	for i := 0; i < 10000; i++ {
		if idx := z.Next(); idx < 0 || idx >= 100 {
			t.Fatalf("draw %d out of range", idx)
		}
	}
}

func TestZipfDeterministicPerSeed(t *testing.T) {
	a, b := NewZipf(1.1, 64, 42), NewZipf(1.1, 64, 42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}
