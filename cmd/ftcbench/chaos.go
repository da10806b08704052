package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ftcache"
	"repro/internal/hvac"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// chaosConfig parameterizes the fault-injection soak.
type chaosConfig struct {
	nodes     int
	clients   int
	files     int
	fileBytes int64
	duration  time.Duration // fault-schedule horizon
	seed      int64
}

// runChaos boots a live in-process cluster behind the chaos controller,
// runs a seeded random fault schedule against it while readers verify
// every byte, then checks the soak invariants: correct bytes on every
// completed read, no stuck reads, and full ring/tracker convergence
// after the schedule heals. The seed is printed first so any failure
// replays exactly:
//
//	ftcbench -chaos -nodes 16 -duration 5s -seed 42
func runChaos(cfg chaosConfig) error {
	if cfg.nodes < 2 {
		return fmt.Errorf("-nodes must be >= 2 (got %d)", cfg.nodes)
	}
	if cfg.clients < 1 {
		return fmt.Errorf("-clients must be >= 1 (got %d)", cfg.clients)
	}
	if cfg.files < 1 {
		return fmt.Errorf("-files must be >= 1 (got %d)", cfg.files)
	}
	const (
		rpcTimeout = 60 * time.Millisecond
		readBudget = 15 * time.Second
	)
	fmt.Printf("chaos: %d nodes, %d clients, %d files x %d B, horizon %s, seed=%d (replay: -seed %d)\n",
		cfg.nodes, cfg.clients, cfg.files, cfg.fileBytes, cfg.duration, cfg.seed, cfg.seed)

	ctl := chaos.New(rpc.NewInprocNetwork(), chaos.Config{Seed: cfg.seed, DialTimeout: 50 * time.Millisecond})
	c, err := core.NewCluster(core.ClusterConfig{
		Nodes:        cfg.nodes,
		Strategy:     ftcache.KindNVMe,
		RPCTimeout:   rpcTimeout,
		TimeoutLimit: 2,
		Network:      ctl.Network("boot"),
		Retry:        &rpc.RetryPolicy{},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	ds := workload.Dataset{Name: "chaos", Prefix: "chaos/train", NumFiles: cfg.files, FileBytes: cfg.fileBytes}
	if _, err := c.Stage(ds); err != nil {
		return err
	}
	if err := c.WarmCache(ds); err != nil {
		return err
	}
	c.FlushMovers()
	c.PFS().ResetCounters()
	paths := ds.AllPaths()

	type chaosClient struct {
		cli  *hvac.Client
		ring interface{ Len() int }
		hb   *cluster.Heartbeat
	}
	clients := make([]*chaosClient, cfg.clients)
	for i := range clients {
		cli, router, err := c.NewClientNet(ctl.Network(fmt.Sprintf("cli-%d", i)))
		if err != nil {
			return err
		}
		cc := &chaosClient{cli: cli, ring: router.(*ftcache.Strategy).Ring()}
		cc.hb = cluster.NewHeartbeat(cli.Tracker(), cli, cluster.HeartbeatConfig{
			Interval:        15 * time.Millisecond,
			Timeout:         rpcTimeout,
			ReviveThreshold: 2,
			OnRevive: func(n cluster.NodeID) {
				go cli.Rejoin(context.Background(), n, hvac.RejoinOptions{Probes: 1, Keys: paths})
			},
		})
		cc.hb.Start()
		clients[i] = cc
		defer cli.Close()
		defer cc.hb.Stop()
	}

	nodeNames := make([]string, 0, cfg.nodes)
	for _, n := range c.Nodes() {
		nodeNames = append(nodeNames, string(n))
	}
	plan := chaos.GeneratePlan(cfg.seed, nodeNames, chaos.PlanConfig{Horizon: cfg.duration})
	fmt.Printf("  plan         %s\n", plan.Summary())

	var (
		reads      atomic.Int64
		transient  atomic.Int64
		wrongBytes atomic.Int64
		stuckReads atomic.Int64
	)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for ci, cc := range clients {
		for g := 0; g < 2; g++ {
			readers.Add(1)
			cli := cc.cli
			rng := rand.New(rand.NewSource(cfg.seed ^ int64(ci*7+g+1)))
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					i := rng.Intn(ds.NumFiles)
					want := ds.SampleContent(i)
					deadline := time.Now().Add(readBudget)
					for {
						ctx, cancel := context.WithDeadline(context.Background(), deadline)
						data, err := cli.Read(ctx, paths[i])
						cancel()
						if err == nil {
							reads.Add(1)
							if !bytes.Equal(data, want) {
								wrongBytes.Add(1)
							}
							break
						}
						if time.Now().After(deadline) {
							stuckReads.Add(1)
							break
						}
						transient.Add(1)
					}
				}
			}()
		}
	}

	planCtx, planCancel := context.WithTimeout(context.Background(), cfg.duration+5*time.Second)
	plan.Execute(planCtx, ctl, chaos.Actions{
		Crash: func(node string, kill bool) {
			mode := core.FailUnresponsive
			if kill {
				mode = core.FailKill
			}
			c.Fail(core.NodeID(node), mode)
		},
		Restart: func(node string) { c.Revive(core.NodeID(node)) },
	})
	planCancel()
	ctl.HealAll()

	converged := func() bool {
		for _, cc := range clients {
			if cc.ring.Len() != cfg.nodes || len(cc.cli.Tracker().Alive()) != cfg.nodes {
				return false
			}
		}
		return true
	}
	healStart := time.Now()
	healDeadline := healStart.Add(20 * time.Second)
	convergedOK := true
	for !converged() {
		if time.Now().After(healDeadline) {
			convergedOK = false
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	healTime := time.Since(healStart).Round(time.Millisecond)
	close(stop)
	readers.Wait()

	// Post-heal verification epoch by every client.
	verifyErrs := 0
	for _, cc := range clients {
		for j := 0; j < ds.NumFiles; j++ {
			if err := core.VerifyRead(context.Background(), cc.cli, ds, j); err != nil {
				verifyErrs++
			}
		}
	}

	reg := telemetry.Default()
	pfsReads, _, _ := c.PFS().Counters()
	fmt.Printf("  faults       %s\n", ctl.FormatFaults())
	fmt.Printf("  reads        %d (verified bytes)\n", reads.Load())
	fmt.Printf("  transient    %d (retried within budget)\n", transient.Load())
	fmt.Printf("  pfs reads    %d (fallbacks during faults)\n", pfsReads)
	fmt.Printf("  retries      attempts=%d exhausted=%d\n",
		reg.Counter("ftc_client_retry_attempts_total").Load(),
		reg.Counter("ftc_client_retry_exhausted_total").Load())
	fmt.Printf("  rejoins      %d (warmed %d files / %d bytes)\n",
		reg.Counter("ftc_client_rejoins_total").Load(),
		reg.Counter("ftc_client_rejoin_warm_files_total").Load(),
		reg.Counter("ftc_client_rejoin_warm_bytes_total").Load())
	fmt.Printf("  heal time    %s (all rings + trackers full)\n", healTime)

	violations := 0
	check := func(ok bool, format string, args ...interface{}) {
		if !ok {
			violations++
			fmt.Printf("  VIOLATION    %s\n", fmt.Sprintf(format, args...))
		}
	}
	check(wrongBytes.Load() == 0, "%d reads returned wrong bytes", wrongBytes.Load())
	check(stuckReads.Load() == 0, "%d reads stuck past %s budget", stuckReads.Load(), readBudget)
	check(convergedOK, "rings/trackers not converged within 20s of heal")
	check(verifyErrs == 0, "%d post-heal verification errors", verifyErrs)
	check(reads.Load() > 0, "zero reads completed")
	if violations > 0 {
		return fmt.Errorf("chaos soak failed: %d invariant violation(s), replay with -chaos -seed %d", violations, cfg.seed)
	}
	fmt.Println("  invariants   all hold (correct bytes, no stuck reads, converged)")
	return nil
}
