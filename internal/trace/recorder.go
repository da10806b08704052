package trace

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Recorder is the flight recorder: fixed-size lock-free rings of
// recently completed traces. Sampling happens at two points:
//
// At *creation* (sampleRate), consulted by StartTrace: 1-in-sampleRate
// requests get spans at all; the rest run with the nil span and pay one
// atomic add. The decision is by TraceID, so it is consistent across
// the whole request — an unsampled client never puts the trace ext on
// the wire, and the servers it touches skip their fragments too. This
// is the knob that keeps tracing within its hot-path budget at
// production rates.
//
// At *retention* (Offer), applied to every completed fragment of a
// sampled request:
//
//   - error-class fragments are always kept, in a dedicated ring that
//     baseline traffic can never overwrite — a trace with a failed
//     span is exactly the one a post-mortem needs, and its retention
//     must not depend on how busy the cache was;
//   - tail sampling keeps fragments whose duration clears a streaming
//     p99 threshold maintained from all offers (a log2-bucket
//     histogram, recomputed every histRecompute offers) — the slow
//     tail is kept even when head sampling would have dropped it;
//   - head sampling keeps 1-in-headRate of the rest by TraceID, so the
//     ring always holds a representative baseline. TraceIDs are
//     deterministic under SeedIDs, which keeps the decision — and the
//     exported artifact — replayable.
//
// Keeps overwrite the oldest slot; the rings never block a request.
type Recorder struct {
	ring []atomic.Pointer[Trace]
	next atomic.Uint64

	// errRing holds error-class fragments only: a separate ring so the
	// 100%-retention guarantee for errors survives arbitrary volumes of
	// healthy traffic (up to the ring's own capacity).
	errRing []atomic.Pointer[Trace]
	errNext atomic.Uint64

	// headRate keeps 1-in-N non-error, non-tail fragments (1 = all).
	headRate uint64

	// sampleRate gates span creation: 1-in-N requests trace (1 = all).
	// Atomic so operators can retune a live recorder.
	sampleRate atomic.Uint64

	offered  atomic.Uint64
	kept     atomic.Uint64
	errKept  atomic.Uint64
	tailKept atomic.Uint64

	// hist buckets offered durations by log2(ns) for the streaming
	// tail threshold; tailNs is the current p99 cutoff (0 = not yet
	// established, tail sampling inactive).
	hist   [64]atomic.Uint64
	tailNs atomic.Int64
}

// histRecompute is how many offers pass between tail-threshold
// refreshes. The threshold trails the live distribution by at most one
// window, which is fine: tail sampling is a retention heuristic, not an
// SLO measurement.
const histRecompute = 128

// tailQuantile is the duration quantile tail sampling retains above.
const tailQuantile = 0.99

// DefaultCapacity is the flight-recorder size used when Enable is
// called without an explicit recorder.
const DefaultCapacity = 4096

// NewRecorder returns a recorder holding up to capacity completed
// traces (plus as many error-class ones), head-sampling 1-in-headRate
// of unremarkable ones. Creation-time sampling starts at 1 (every
// request traces); use SetSampleRate for production-shaped load.
// capacity and headRate are clamped to at least 1.
func NewRecorder(capacity, headRate int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	if headRate < 1 {
		headRate = 1
	}
	r := &Recorder{
		ring:     make([]atomic.Pointer[Trace], capacity),
		errRing:  make([]atomic.Pointer[Trace], capacity),
		headRate: uint64(headRate),
	}
	r.sampleRate.Store(1)
	return r
}

// SetSampleRate makes 1-in-n requests trace at all (n clamped to at
// least 1). Unsampled requests run with the nil span: one atomic add
// of overhead, no clock reads, no wire extension, no server fragments.
func (r *Recorder) SetSampleRate(n int) {
	if n < 1 {
		n = 1
	}
	r.sampleRate.Store(uint64(n))
}

// sampleTrace is the creation-time decision for a freshly minted trace
// id.
//
//ftc:hotpath
func (r *Recorder) sampleTrace(id uint64) bool {
	return id%r.sampleRate.Load() == 0
}

// defaultRecorder is where root spans deliver completed fragments.
var defaultRecorder atomic.Pointer[Recorder]

// SetRecorder installs r as the process recorder (nil detaches).
func SetRecorder(r *Recorder) { defaultRecorder.Store(r) }

// ActiveRecorder returns the installed recorder, or nil.
func ActiveRecorder() *Recorder { return defaultRecorder.Load() }

func activeRecorder() *Recorder { return defaultRecorder.Load() }

// Enable is the one-call setup: install a fresh recorder and turn span
// recording on. headRate 1 keeps every trace (tests, soaks); larger
// rates are for production-shaped load.
func Enable(capacity, headRate int) *Recorder {
	r := NewRecorder(capacity, headRate)
	SetRecorder(r)
	SetEnabled(true)
	return r
}

// Disable turns span recording off and detaches the recorder.
func Disable() {
	SetEnabled(false)
	SetRecorder(nil)
}

// bucketIdx maps a duration to its log2 histogram bucket.
func bucketIdx(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d)) - 1
}

// Offer presents a completed fragment for retention. Called from the
// root span's End; must not block.
func (r *Recorder) Offer(t *Trace) {
	n := r.offered.Add(1)
	r.hist[bucketIdx(t.Duration)].Add(1)
	if n%histRecompute == 0 {
		r.recomputeTail(n)
	}

	if t.Err {
		r.errKept.Add(1)
		r.kept.Add(1)
		idx := (r.errNext.Add(1) - 1) % uint64(len(r.errRing))
		r.errRing[idx].Store(t)
		return
	}
	keep := false
	switch {
	case r.tailSampled(t.Duration):
		r.tailKept.Add(1)
		keep = true
	case uint64(t.ID)%r.headRate == 0:
		keep = true
	}
	if !keep {
		return
	}
	r.kept.Add(1)
	idx := (r.next.Add(1) - 1) % uint64(len(r.ring))
	r.ring[idx].Store(t)
}

// tailSampled reports whether d clears the current tail threshold.
func (r *Recorder) tailSampled(d time.Duration) bool {
	cut := r.tailNs.Load()
	return cut > 0 && int64(d) >= cut
}

// recomputeTail rebuilds the p99 cutoff from the bucket counts. The
// cutoff is the lower bound of the bucket holding the tail quantile —
// coarse (power-of-two resolution) but cheap and monotone.
func (r *Recorder) recomputeTail(total uint64) {
	want := uint64(float64(total) * tailQuantile)
	if want < 1 {
		want = 1
	}
	var cum uint64
	for i := range r.hist {
		cum += r.hist[i].Load()
		if cum >= want {
			r.tailNs.Store(int64(1) << uint(i))
			return
		}
	}
}

// Snapshot returns the kept traces — baseline and error rings merged —
// oldest first by start time (ties broken by trace id for a stable
// order).
func (r *Recorder) Snapshot() []*Trace {
	out := make([]*Trace, 0, len(r.ring)+len(r.errRing))
	for i := range r.ring {
		if t := r.ring[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	for i := range r.errRing {
		if t := r.errRing[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Stats is a point-in-time view of recorder retention counters.
type Stats struct {
	Capacity   int    `json:"capacity"`
	HeadRate   int    `json:"head_rate"`
	SampleRate int    `json:"sample_rate"`
	Offered    uint64 `json:"offered"`
	Kept       uint64 `json:"kept"`
	ErrKept    uint64 `json:"err_kept"`
	TailKept   uint64 `json:"tail_kept"`
	TailCutoff int64  `json:"tail_cutoff_ns"`
}

// Stats returns current retention counters.
func (r *Recorder) Stats() Stats {
	return Stats{
		Capacity:   len(r.ring),
		HeadRate:   int(r.headRate),
		SampleRate: int(r.sampleRate.Load()),
		Offered:    r.offered.Load(),
		Kept:       r.kept.Load(),
		ErrKept:    r.errKept.Load(),
		TailKept:   r.tailKept.Load(),
		TailCutoff: r.tailNs.Load(),
	}
}
