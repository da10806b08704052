package hvac

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// Rejoin errors.
var (
	// ErrRejoinActive: another Rejoin for the same node is in flight.
	ErrRejoinActive = errors.New("hvac: rejoin already in progress")
	// ErrNotFailed: the node is not declared failed, nothing to rejoin.
	ErrNotFailed = errors.New("hvac: node is not failed")
)

// RejoinOptions tunes a Rejoin.
type RejoinOptions struct {
	// Probes is the number of consecutive successful pings required
	// before the node is trusted (K in the protocol); <= 0 selects 3.
	// Callers driving Rejoin from a Heartbeat that already required K
	// probes may pass 1.
	Probes int
	// Keys is the key population to plan warming over. Empty selects
	// ClientConfig.Manifest — the listing the failure path plans over —
	// and without one either skips warmup: the node rejoins cold and
	// self-fills from the PFS on first touch.
	Keys []string
	// WarmConcurrency bounds parallel warm transfers; <= 0 selects 4.
	WarmConcurrency int
}

// RejoinReport summarizes a completed (or aborted) Rejoin.
type RejoinReport struct {
	Node        cluster.NodeID
	Probes      int   // successful probes performed
	PlannedKeys int   // keys the node will own post-rejoin
	WarmedFiles int   // keys pushed onto its NVMe before the swap
	WarmedBytes int64 // bytes pushed
	WarmErrors  int   // best-effort warm failures (node self-fills later)
	Revived     bool  // tracker cleared + router re-admitted the node
}

// Rejoin runs the full node-recovery protocol — the inverse of the
// failure path, ordered so readers never observe a half-rejoined node:
//
//  1. Probe: K consecutive pings must succeed (a flapping node is
//     rejected before any work is spent on it).
//  2. Warm: plan the keys the node will own once re-added
//     (Router.PlanRejoin), read each from its *current* owner —
//     the ring still routes around the rejoining node — and push it onto
//     the node's NVMe. Warm failures are best-effort: a missed key is a
//     PFS self-fill on first touch, never an error.
//  3. Swap: Tracker.Revive fires OnRecovery, the router's NodeRecovered
//     re-adds the node (the ring strategy swaps in a new COW snapshot),
//     and traffic starts routing to the now-warm node atomically.
//
// Concurrent Rejoins for one node dedup: the losers get ErrRejoinActive.
func (c *Client) Rejoin(ctx context.Context, node cluster.NodeID, opts RejoinOptions) (RejoinReport, error) {
	rep := RejoinReport{Node: node}
	if opts.Probes <= 0 {
		opts.Probes = 3
	}
	if opts.WarmConcurrency <= 0 {
		opts.WarmConcurrency = 4
	}
	c.rejoinMu.Lock()
	if c.rejoining[node] {
		c.rejoinMu.Unlock()
		return rep, fmt.Errorf("%w: %s", ErrRejoinActive, node)
	}
	c.rejoining[node] = true
	c.rejoinMu.Unlock()
	defer func() {
		c.rejoinMu.Lock()
		delete(c.rejoining, node)
		c.rejoinMu.Unlock()
	}()

	if c.tracker.IsAlive(node) {
		return rep, fmt.Errorf("%w: %s", ErrNotFailed, node)
	}

	// Probe over a fresh connection: the cached one died with the old
	// process.
	c.dropConn(node)
	for i := 0; i < opts.Probes; i++ {
		if err := c.Ping(ctx, node); err != nil {
			return rep, fmt.Errorf("hvac: rejoin probe %d/%d of %s: %w", i+1, opts.Probes, node, err)
		}
		rep.Probes++
	}

	keys := opts.Keys
	if len(keys) == 0 && c.cfg.Manifest != nil {
		keys = c.cfg.Manifest()
	}
	var warm []string
	if len(keys) > 0 {
		warm = c.cfg.Router.PlanRejoin(node, keys)
	}
	rep.PlannedKeys = len(warm)

	m := cliMetrics()
	var warmedFiles, warmedBytes, warmErrs atomic.Int64
	sem := make(chan struct{}, opts.WarmConcurrency)
	var wg sync.WaitGroup
	for _, key := range warm {
		if ctx.Err() != nil {
			break
		}
		key := key
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			// Read from the current owner (the ring has not swapped yet,
			// so this routes to whoever inherited the key), then place it
			// on the rejoining node's NVMe.
			data, err := c.readAttempts(ctx, key, 0, -1, time.Now())
			if err == nil {
				err = c.Push(ctx, node, key, data)
			}
			if err != nil {
				warmErrs.Add(1)
				return
			}
			warmedFiles.Add(1)
			warmedBytes.Add(int64(len(data)))
		}()
	}
	wg.Wait()
	rep.WarmedFiles = int(warmedFiles.Load())
	rep.WarmedBytes = warmedBytes.Load()
	rep.WarmErrors = int(warmErrs.Load())
	m.rejoinWarmFiles.Add(int64(rep.WarmedFiles))
	m.rejoinWarmBytes.Add(rep.WarmedBytes)
	if ctx.Err() != nil {
		// Interrupted mid-warmup: leave the node out of the ring; the
		// pushed objects stay warm for the next attempt.
		return rep, ctx.Err()
	}

	rep.Revived = c.ReviveNode(node)
	m.rejoins.Inc()
	telemetry.TraceEvent(telemetry.EventNodeRejoined, string(node), "rejoin", rep.WarmedBytes)
	return rep, nil
}
