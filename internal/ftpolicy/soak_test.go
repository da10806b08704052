package ftpolicy_test

// The adaptive-policy soak: a live in-process cluster whose clients
// route through Switchable routers under ftpolicy control, driven
// through both stock seeded phase-shift schedules (calm → failure
// burst → heal → PFS contention, and its contention-first mirror).
// On top of the standard chaos-soak invariants —
// correct bytes, no stuck reads, post-heal convergence — the adaptive
// run must be hitless across every live strategy switch:
//
//   - no read ever returns hvac.ErrAborted (the Switchable escape
//     hatch converts NoFT aborts into automatic switches), and
//   - the exported decision log replays deterministically through the
//     pure decision function.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ftcache"
	"repro/internal/ftpolicy"
	"repro/internal/hvac"
	"repro/internal/rpc"
	"repro/internal/testutil"
	"repro/internal/workload"
)

func TestAdaptivePhasedSoak(t *testing.T) {
	testutil.CheckGoroutines(t)
	unit := 500 * time.Millisecond
	pfsDelay := 2 * time.Millisecond
	// Both stock regime orderings, each on its own seed, so the
	// controller walks calm→burst→contention and contention→burst under
	// -race every run. FTC_CHAOS_SEED replays a failure on both.
	cases := []struct {
		name   string
		seed   int64
		phases []chaos.Phase
	}{
		{"calm-burst-heal-contention", 11, chaos.PhasesCalmBurstHealContention(unit, pfsDelay)},
		{"contention-first", 12, chaos.PhasesContentionFirst(unit, pfsDelay)},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	if s := os.Getenv("FTC_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("FTC_CHAOS_SEED=%q: %v", s, err)
		}
		for i := range cases {
			cases[i].seed = v
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/seed=%d", tc.name, tc.seed), func(t *testing.T) {
			runAdaptiveSoak(t, tc.seed, tc.phases)
		})
	}
}

func runAdaptiveSoak(t *testing.T, seed int64, phases []chaos.Phase) {
	const (
		nodes      = 16
		nClients   = 4
		rpcTimeout = 60 * time.Millisecond
		readBudget = 15 * time.Second
	)
	t.Logf("adaptive soak seed=%d (replay: FTC_CHAOS_SEED=%d)", seed, seed)

	netctl := chaos.New(rpc.NewInprocNetwork(), chaos.Config{Seed: seed, DialTimeout: 50 * time.Millisecond})
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:        nodes,
		Strategy:     ftcache.KindAdaptive,
		RPCTimeout:   rpcTimeout,
		TimeoutLimit: 2,
		Network:      netctl.Network("boot"),
		Retry:        &rpc.RetryPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ds := workload.Dataset{Name: "adapt", Prefix: "adapt/train", NumFiles: 200, FileBytes: 512}
	if _, err := cl.Stage(ds); err != nil {
		t.Fatal(err)
	}
	if err := cl.WarmCache(ds); err != nil {
		t.Fatal(err)
	}
	paths := ds.AllPaths()
	defer cl.PFS().SetReadDelay(0)

	policy := ftpolicy.New(ftpolicy.Config{
		Interval:       20 * time.Millisecond,
		CooldownTicks:  3,
		FailHigh:       2,
		CalmTicks:      8,
		AllowNoFT:      true, // exercise the escape hatch under the burst
		PFSLatencyHigh: time.Millisecond,
	})
	policy.SetPFSProbe(cl.PolicyProbe(paths[0]))

	type soakClient struct {
		cli *hvac.Client
		sw  *ftcache.Strategy
		hb  *cluster.Heartbeat
	}
	clients := make([]*soakClient, nClients)
	for i := range clients {
		cli, sw, err := cl.NewAdaptiveClientNet(netctl.Network(fmt.Sprintf("cli-%d", i)), policy)
		if err != nil {
			t.Fatal(err)
		}
		sc := &soakClient{cli: cli, sw: sw}
		sc.hb = cluster.NewHeartbeat(cli.Tracker(), cli, cluster.HeartbeatConfig{
			Interval:        15 * time.Millisecond,
			Timeout:         rpcTimeout,
			ReviveThreshold: 2,
			OnRevive: func(n cluster.NodeID) {
				go cli.Rejoin(context.Background(), n,
					hvac.RejoinOptions{Probes: 1, Keys: paths})
			},
		})
		sc.hb.Start()
		clients[i] = sc
		defer cli.Close()
		defer sc.hb.Stop()
	}

	policyCtx, policyCancel := context.WithCancel(context.Background())
	policyDone := make(chan struct{})
	go func() {
		defer close(policyDone)
		policy.Run(policyCtx)
	}()
	defer func() {
		policyCancel()
		<-policyDone
	}()

	nodeNames := make([]string, 0, nodes)
	for _, n := range cl.Nodes() {
		nodeNames = append(nodeNames, string(n))
	}
	plan := chaos.GeneratePlan(seed, nodeNames, phases)
	t.Logf("phases: %v", phases)
	t.Logf("plan: %s", plan.Summary())

	var (
		reads      atomic.Int64
		transient  atomic.Int64
		wrongBytes atomic.Int64
		stuck      atomic.Int64
		aborted    atomic.Int64
	)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for ci, sc := range clients {
		for g := 0; g < 2; g++ {
			readers.Add(1)
			cli := sc.cli
			rng := rand.New(rand.NewSource(seed ^ int64(ci*7+g+1)))
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
								t.Errorf("seed=%d: wrong bytes for %s (%d vs %d)", seed, paths[i], len(data), len(want))
							}
							break
						}
						if err == hvac.ErrAborted || err == hvac.ErrNotFound {
							// The adaptive contract: jobs never die of NoFT.
							aborted.Add(1)
							t.Errorf("seed=%d: read %s: %v", seed, paths[i], err)
							break
						}
						if time.Now().After(deadline) {
							stuck.Add(1)
							t.Errorf("seed=%d: read %s stuck: no success within %v (last err: %v)",
								seed, paths[i], readBudget, err)
							break
						}
						transient.Add(1)
					}
				}
			}()
		}
	}

	planCtx, planCancel := context.WithTimeout(context.Background(), plan.Horizon+5*time.Second)
	plan.Execute(planCtx, netctl, chaos.Actions{
		Crash: func(node string, kill bool) {
			mode := core.FailUnresponsive
			if kill {
				mode = core.FailKill
			}
			if err := cl.Fail(core.NodeID(node), mode); err != nil {
				t.Errorf("crash %s: %v", node, err)
			}
		},
		Restart: func(node string) {
			if err := cl.Revive(core.NodeID(node)); err != nil {
				t.Errorf("restart %s: %v", node, err)
			}
		},
		SetPFSDelay: cl.PFS().SetReadDelay,
	})
	planCancel()
	netctl.HealAll()

	// Convergence: every client's live ring and tracker back to full
	// membership.
	converged := func() bool {
		for _, sc := range clients {
			ring := sc.sw.Ring()
			if ring.Len() != nodes || len(sc.cli.Tracker().Alive()) != nodes {
				return false
			}
		}
		return true
	}
	healDeadline := time.Now().Add(20 * time.Second)
	for !converged() {
		if time.Now().After(healDeadline) {
			for i, sc := range clients {
				ring := sc.sw.Ring()
				t.Errorf("seed=%d: client %d not converged: ring=%d alive=%d",
					seed, i, ring.Len(), len(sc.cli.Tracker().Alive()))
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	readers.Wait()
	// Let the controller observe the healed, quiet fleet and release
	// its burst latch before shutdown — the exit commit is part of the
	// asserted regime walk, and on a fast (non-race) run the plan can
	// finish before the quiet streak elapses.
	settleDeadline := time.Now().Add(5 * time.Second)
	for policy.Active() == ftcache.KindPFS && time.Now().Before(settleDeadline) {
		time.Sleep(20 * time.Millisecond)
	}
	policyCancel()
	<-policyDone

	// Post-heal verification epoch.
	for i, sc := range clients {
		for j := 0; j < ds.NumFiles; j++ {
			if err := core.VerifyRead(context.Background(), sc.cli, ds, j); err != nil {
				t.Fatalf("seed=%d: post-heal verify client=%d file=%d: %v", seed, i, j, err)
			}
		}
	}

	decisions := policy.Decisions(0)
	for _, d := range decisions {
		t.Logf("seed=%d: decision seq=%d tick=%d %s->%s (%s) sig={ev=%.0f down=%.0f pfs=%.2fms}",
			seed, d.Seq, d.Tick, d.From, d.To, d.Reason,
			d.Signals.Failures+d.Signals.Recoveries, d.Signals.FailedDown, d.Signals.PFSLatMs)
	}
	if policy.Switches() < 2 {
		t.Errorf("seed=%d: controller committed %d switches across the phase walk, want >= 2", seed, policy.Switches())
	}
	if err := ftpolicy.Replay(ftpolicy.Config{
		CooldownTicks: 3, FailHigh: 2, CalmTicks: 8, AllowNoFT: true,
		PFSLatencyHigh: time.Millisecond,
	}, decisions); err != nil {
		t.Errorf("seed=%d: decision log does not replay: %v", seed, err)
	}
	t.Logf("seed=%d: reads=%d transient-retries=%d switches=%d faults[%s]",
		seed, reads.Load(), transient.Load(), policy.Switches(), netctl.FormatFaults())
	if reads.Load() == 0 {
		t.Error("soak completed zero reads")
	}
	if wrongBytes.Load() != 0 || stuck.Load() != 0 || aborted.Load() != 0 {
		t.Errorf("invariant violations: wrong-bytes=%d stuck=%d aborted=%d",
			wrongBytes.Load(), stuck.Load(), aborted.Load())
	}
}
