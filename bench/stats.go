package main

import (
	"math"
	"slices"
)

// quantile returns the exact nearest-rank order statistic of sorted at
// q in (0,1]: the smallest sample with at least q of the population at
// or below it. No interpolation, no histogram buckets.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median is the plain median of xs (mean of the middle pair when even).
// xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianNs is the plain median of int64 samples, as a float.
func medianNs(samples []int64) float64 {
	xs := make([]float64, len(samples))
	for i, v := range samples {
		xs[i] = float64(v)
	}
	return median(xs)
}

// merged concatenates the per-worker sample buffers and sorts the copy.
func merged(perWorker [][]int64) []int64 {
	n := 0
	for _, w := range perWorker {
		n += len(w)
	}
	out := make([]int64, 0, n)
	for _, w := range perWorker {
		out = append(out, w...)
	}
	slices.Sort(out)
	return out
}

// subWindows is how many equal consecutive slices a run is cut into for
// the windowed p99.
const subWindows = 10

// windowedQuantile is the median over subWindows equal consecutive
// sub-windows of each sub-window's exact quantile. Every worker's
// samples are in issue order, so slice k of each worker covers the same
// tenth of the run; one stall caused by a neighbour on the shared
// machine lands in one sub-window and does not move the median.
func windowedQuantile(perWorker [][]int64, q float64) float64 {
	var per []float64
	for k := 0; k < subWindows; k++ {
		var win []int64
		for _, w := range perWorker {
			lo, hi := len(w)*k/subWindows, len(w)*(k+1)/subWindows
			win = append(win, w[lo:hi]...)
		}
		if len(win) == 0 {
			continue
		}
		slices.Sort(win)
		per = append(per, float64(quantile(win, q)))
	}
	return median(per)
}
