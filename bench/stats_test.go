package main

import "testing"

func TestQuantileIsExactOrderStatistic(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.01, 1}, {0.001, 1}} {
		if got := quantile(sorted, tc.q); got != tc.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d, want 0", got)
	}
	if got := quantile([]int64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %d, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// One worker stalls for a whole sub-window: the plain p99 jumps to the
// stall, the windowed p99 stays with the other nine sub-windows.
func TestWindowedQuantileIgnoresOneStall(t *testing.T) {
	const perWindow = 1000
	workers := make([][]int64, 2)
	for w := range workers {
		for k := 0; k < subWindows; k++ {
			for i := 0; i < perWindow; i++ {
				v := int64(10_000 + i) // 10.000 .. 10.999 µs
				if k == 4 && i%20 == 0 {
					v = 5_000_000 // 5 % of sub-window 4 hit a 5 ms stall
				}
				workers[w] = append(workers[w], v)
			}
		}
	}
	plain := quantile(merged(workers), 0.996)
	if plain != 5_000_000 {
		t.Fatalf("plain p99.6 = %d, the fixture should put the stall there", plain)
	}
	got := windowedQuantile(workers, 0.99)
	if got < 10_980 || got > 10_999 {
		t.Errorf("windowed p99 = %v ns, want the unstalled sub-windows' ≈ 10 990", got)
	}
}

func TestWindowedQuantileFewSamples(t *testing.T) {
	if got := windowedQuantile([][]int64{{5}, {}}, 0.99); got != 5 {
		t.Errorf("windowed p99 of one sample = %v, want 5", got)
	}
	if got := windowedQuantile(nil, 0.99); got != 0 {
		t.Errorf("windowed p99 of nothing = %v, want 0", got)
	}
}
