package rpc

import (
	"context"
	"math/rand"
	"time"
)

// The retry schedule: up to retryBudget more attempts after the first
// failure, the a-th waiting retryBase·2^a capped at retryCap, each
// delay scaled by a uniform factor in [1-retryJitter, 1+retryJitter].
// retryBudget × retryCap stays below the detector's suspect budget, so
// an exhausted retry loop still surfaces evidence promptly.
const (
	retryBudget = 2
	retryBase   = 2 * time.Millisecond
	retryCap    = 100 * time.Millisecond
	retryJitter = 0.5
)

// RetryPolicy is the bounded exponential-backoff-with-jitter schedule
// for absorbing transient transport faults (a connection reset
// mid-stream, a listener briefly gone during a restart) without
// surfacing them to higher layers as failure evidence. It has no
// fields: the zero value is the schedule.
//
// The interaction rule with the timeout-based failure detector (paper
// §IV-A) is deliberate and asymmetric:
//
//   - Timeout-class failures are NEVER retried in place: the request
//     already consumed a full TTL, and the detector exists precisely to
//     count those. Retrying them would both double the latency cost and
//     starve the detector of its evidence.
//   - Connection-class failures (reset, refused) ARE retried here with
//     backoff: they are cheap to observe (fail fast, no TTL consumed),
//     commonly transient (a flapping link, a restarting daemon), and a
//     healthy node must not accrue detector evidence because one TCP
//     connection died.
//
// The jittered delays also decorrelate clients retrying after a mass
// event, the same storm-avoidance argument as heartbeat jitter.
type RetryPolicy struct{}

// Retries returns the retry budget.
func (RetryPolicy) Retries() int { return retryBudget }

// Backoff returns the jittered delay before retry attempt (0-based: the
// delay between the first failure and the first retry is Backoff(0)).
func (RetryPolicy) Backoff(attempt int) time.Duration {
	d := retryBase << uint(attempt)
	if d <= 0 || d > retryCap { // <= 0 catches shift overflow
		d = retryCap
	}
	return time.Duration(float64(d) * (1 + retryJitter*(2*rand.Float64()-1)))
}

// Sleep blocks for Backoff(attempt) or until ctx is done, returning
// ctx.Err() in the latter case.
func (p RetryPolicy) Sleep(ctx context.Context, attempt int) error {
	t := time.NewTimer(p.Backoff(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
