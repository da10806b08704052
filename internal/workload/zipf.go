package workload

import (
	"math"
	"sort"

	"repro/internal/xhash"
)

// Zipf draws sample indices from a Zipf(s) distribution over [0, n):
// index i is drawn with probability proportional to 1/(i+1)^s. It models
// the skewed access patterns that break placement-only load balancing —
// shared index files, dataset manifests, popular samples under
// importance sampling.
//
// Unlike math/rand's Zipf it supports any s >= 0 (including s < 1 and
// the s = 0 uniform edge) by inverting the explicit cumulative weight
// table: one binary search per draw over n precomputed floats. The
// deterministic seed keeps experiment runs reproducible.
type Zipf struct {
	cum   []float64 // cumulative weights, cum[n-1] = total mass
	state uint64
}

// NewZipf creates a generator over n indices with exponent s (s = 0 is
// uniform; larger s is more skewed). n < 1 is treated as 1.
func NewZipf(s float64, n int, seed int64) *Zipf {
	if n < 1 {
		n = 1
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return &Zipf{cum: cum, state: uint64(seed) ^ 0x9E3779B97F4A7C15}
}

// Next draws one index in [0, n).
func (z *Zipf) Next() int {
	u := float64(xhash.SplitMix64(&z.state)>>11) / float64(1<<53)
	target := u * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, target)
}
