package hvac

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// RejoinOptions tunes a Rejoin.
type RejoinOptions struct {
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
	Probes      int   // pings this Rejoin sent
	PlannedKeys int   // keys the node will own post-rejoin
	WarmedFiles int   // keys pushed onto its NVMe before the swap
	WarmedBytes int64 // bytes pushed
	WarmErrors  int   // best-effort warm failures (node self-fills later)
	Revived     bool  // tracker cleared + router re-admitted the node
}

// Rejoin runs the full node-recovery protocol — the inverse of the
// failure path, ordered so readers never observe a half-rejoined node:
//
//  1. Probe: ping until the node's probe streak, which the heartbeat's
//     recovery probes feed too, reaches the tracker's Limit; a failed
//     ping aborts (the node flapped).
//  2. Warm: plan the keys the node will own once re-added
//     (Router.PlanRejoin), read each from its *current* owner —
//     the ring still routes around the rejoining node — and push it onto
//     the node's NVMe. Warm failures are best-effort: a missed key is a
//     PFS self-fill on first touch, never an error.
//  3. Swap: Tracker.Revive re-adds the node to the router (the ring
//     strategy swaps in a new COW snapshot), and traffic starts routing
//     to the now-warm node atomically.
//
// One rejoin per node runs at a time (else cluster.ErrRejoinActive; an
// alive node gives cluster.ErrNotFailed); one that fails or is cancelled
// leaves the node declared.
func (c *Client) Rejoin(ctx context.Context, node cluster.NodeID, opts RejoinOptions) (rep RejoinReport, err error) {
	rep.Node = node
	if opts.WarmConcurrency <= 0 {
		opts.WarmConcurrency = 4
	}
	eff, err := c.tracker.BeginRejoin(node)
	if err != nil {
		return rep, fmt.Errorf("hvac: %w: %s", err, node)
	}
	defer func() {
		if !rep.Revived {
			c.tracker.AbortRejoin(node)
		}
	}()

	c.dropConn(node) // probe over a fresh connection: the cached one died with the old process
	for eff == cluster.Probe {
		if err := c.Ping(ctx, node); err != nil {
			c.tracker.ProbeResult(node, false)
			return rep, fmt.Errorf("hvac: rejoin probe %d of %s: %w", rep.Probes+1, node, err)
		}
		rep.Probes++
		eff = c.tracker.ProbeResult(node, true)
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

	// Workers read each key from its current owner (whoever inherited it:
	// the ring has not swapped yet) and place it on the node's NVMe.
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan string)
	for i := 0; i < min(opts.WarmConcurrency, len(warm)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range work {
				data, err := c.readAttempts(ctx, key, 0, -1, time.Now())
				if err == nil {
					err = c.Push(ctx, node, key, data)
				}
				mu.Lock()
				if err != nil {
					rep.WarmErrors++
				} else {
					rep.WarmedFiles++
					rep.WarmedBytes += int64(len(data))
				}
				mu.Unlock()
			}
		}()
	}
	for _, key := range warm {
		if ctx.Err() != nil {
			break
		}
		work <- key
	}
	close(work)
	wg.Wait()
	m := cliMetrics()
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
