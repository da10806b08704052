package stats

import "sort"

// P2Quantile is the Jain & Chlamtac P² algorithm: a streaming estimate
// of one quantile in O(1) memory, no sample buffer. The latency
// observability in the HVAC client uses it to report p50/p95/p99 read
// latencies without allocating per read — exactly what a long-running
// cache daemon needs.
type P2Quantile struct {
	p       float64
	n       int
	q       [5]float64 // marker heights
	pos     [5]float64 // marker positions (1-based)
	desired [5]float64
	inc     [5]float64
	initBuf []float64
}

// NewP2Quantile creates an estimator for quantile p ∈ (0, 1).
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic("stats: quantile must be in (0,1)")
	}
	e := &P2Quantile{p: p}
	e.desired = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	e.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	e.initBuf = make([]float64, 0, 5)
	return e
}

// Add incorporates one observation.
func (e *P2Quantile) Add(x float64) {
	e.n++
	if len(e.initBuf) < 5 {
		e.initBuf = append(e.initBuf, x)
		if len(e.initBuf) == 5 {
			sort.Float64s(e.initBuf)
			for i := 0; i < 5; i++ {
				e.q[i] = e.initBuf[i]
				e.pos[i] = float64(i + 1)
			}
		}
		return
	}

	// Find the cell k containing x and update extreme markers.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}

	// Shift positions of markers above the cell.
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := 0; i < 5; i++ {
		e.desired[i] += e.inc[i]
	}

	// Adjust interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.desired[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			// Piecewise-parabolic prediction.
			qNew := e.parabolic(i, sign)
			if e.q[i-1] < qNew && qNew < e.q[i+1] {
				e.q[i] = qNew
			} else {
				e.q[i] = e.linear(i, sign)
			}
			e.pos[i] += sign
		}
	}
}

func (e *P2Quantile) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+d)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-d)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

func (e *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// N returns the number of observations.
func (e *P2Quantile) N() int { return e.n }

// Value returns the current quantile estimate. With fewer than 5
// observations it falls back to the exact small-sample quantile.
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return 0
	}
	if len(e.initBuf) < 5 {
		s := append([]float64(nil), e.initBuf...)
		sort.Float64s(s)
		return Percentile(s, e.p*100)
	}
	return e.q[2]
}

// LatencySnapshot is a point-in-time latency summary (count, mean,
// extremes and three quantiles, in any consistent unit) — the shape the
// cache client reports its read latency in.
type LatencySnapshot struct {
	N              int
	Mean, Min, Max float64
	P50, P95, P99  float64
}
