package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"
)

// Histogram bucket scheme (fixed, log-scale):
//
//   - bucket 0 holds values <= 0;
//   - buckets 1..7 hold the exact small values 1..7;
//   - from 8 upward, each power-of-two octave splits into 4 sub-buckets
//     keyed by the two bits below the leading bit, for a worst-case
//     relative bucket width of 25%.
//
// Values are int64 nanoseconds. bucketIndex is branch-light integer
// arithmetic (bits.Len64 + shifts), so Observe is one index computation
// and one atomic add — no locks, no allocation, no float math.
const (
	histStripes = 8            // power of two; stripe picked per-goroutine
	numBuckets  = 8 + (64-3)*4 // 252: exact 0..7, then 4 per octave up to 2^64
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v)
	if u < 8 {
		return int(u)
	}
	e := bits.Len64(u)          // 4..64
	sub := (u >> uint(e-3)) & 3 // two bits below the leading bit
	return 8 + (e-4)*4 + int(sub)
}

// bucketBounds returns bucket i's value range [lo, hi).
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 1
	}
	if i < 8 {
		return uint64(i), uint64(i) + 1
	}
	i -= 8
	e := uint(i/4 + 4)
	sub := uint64(i % 4)
	lo = 1<<(e-1) | sub<<(e-3)
	return lo, lo + 1<<(e-3)
}

// histStripe is one writer stripe. Stripes are padded apart so two
// cores observing concurrently do not bounce a cache line between them
// on the count/sum words.
type histStripe struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	_       [48]byte // keep the hot count/sum words off the next stripe's line
}

// Histogram is a striped, lock-free, log-scale-bucket histogram.
// The zero value is ready to use; obtain shared instances from a
// Registry so they render on scrape.
type Histogram struct {
	stripes [histStripes]histStripe
}

// stripeHint derives a stable-per-goroutine stripe from the address of
// a stack variable: goroutine stacks live in distinct allocations, so
// concurrent observers spread across stripes without any shared state.
// The low bits (in-frame offset) are discarded. unsafe is used only to
// read the address; nothing is dereferenced.
func stripeHint() uint64 {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return uint64(p >> 10)
}

// Observe records v (nanoseconds): one bucket index computation and
// three atomic adds into this goroutine's stripe.
//
//ftc:hotpath
func (h *Histogram) Observe(v int64) {
	s := &h.stripes[stripeHint()&(histStripes-1)]
	s.buckets[bucketIndex(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
}

// ObserveSince records the elapsed time since start.
//
//ftc:hotpath
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// HistogramSnapshot is a merged point-in-time view. Buckets has
// numBuckets entries; Sum and the quantiles are nanoseconds.
type HistogramSnapshot struct {
	Count   uint64
	Sum     int64
	Buckets []uint64
}

// Snapshot merges the stripes with atomic loads only — a scrape never
// blocks an observer. The merge is not a single consistent cut (counts
// may land between stripe reads); for monitoring that skew is
// irrelevant and it is the price of a lock-free write side.
func (h *Histogram) Snapshot() HistogramSnapshot {
	out := HistogramSnapshot{Buckets: make([]uint64, numBuckets)}
	for i := range h.stripes {
		s := &h.stripes[i]
		out.Count += s.count.Load()
		out.Sum += s.sum.Load()
		for b := range s.buckets {
			out.Buckets[b] += s.buckets[b].Load()
		}
	}
	return out
}

// Quantile estimates the q-quantile (q in [0,1]) in nanoseconds by
// linear interpolation inside the target bucket. Returns 0 on an empty
// histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - prev) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return float64(lo) + frac*float64(hi-lo)
		}
	}
	lo, hi := bucketBounds(numBuckets - 1)
	_ = lo
	return float64(hi)
}

// Mean returns the mean observation in nanoseconds (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
