package chaos_test

// The chaos soak: a live in-process FT-Cache cluster under a seeded
// random fault schedule, asserting the system's safety and liveness
// invariants end to end:
//
//   1. Correctness — every read that completes returns exactly the
//      staged bytes (from NVMe, a replica, or the PFS fallback); a
//      single wrong byte fails the soak.
//   2. No stuck reads — every read completes within a generous budget
//      even while faults are active (transient failures are retried by
//      the harness; never finishing is the violation).
//   3. Convergence — after the fault window heals, every client's ring
//      returns to full membership and every tracker sees every node
//      alive: a healthy node is never permanently dead, even when the
//      only "fault" it suffered was added latency past the RPC TTL.
//   4. Post-heal epoch — a full verification pass over the dataset by
//      every client completes with zero errors.
//
// The schedule is deterministic from the seed: a failure reruns exactly
// with FTC_CHAOS_SEED=<printed seed>.

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
	"repro/internal/hvac"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/workload"
)

func TestChaosSoak(t *testing.T) {
	testutil.CheckGoroutines(t)
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	if s := os.Getenv("FTC_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("FTC_CHAOS_SEED=%q: %v", s, err)
		}
		seeds = []int64{v}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSoak(t, seed, nil, 0)
		})
	}
}

// TestChaosSoakBatchedIngest is the soak with the batched async ingest
// pipeline on: writers PutAsync/Flush staged objects throughout the
// fault window (flush failures under faults are tolerated and retried
// as transients), and after the heal a dedicated epoch asserts the
// ack-visibility invariant — a Flush that returns success leaves every
// put object readable from its ring owner's NVMe.
func TestChaosSoakBatchedIngest(t *testing.T) {
	testutil.CheckGoroutines(t)
	seed := int64(4)
	if s := os.Getenv("FTC_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("FTC_CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
	}
	runSoak(t, seed, &hvac.IngestConfig{MaxBatchEntries: 16, MaxDelay: 2 * time.Millisecond}, 0)
}

// TestChaosSoakRAMTier is the soak with the in-memory hot-object tier
// enabled on every server: the same wrong-bytes/stuck/convergence
// invariants must hold while hot objects get promoted into RAM, served
// zero-copy, evicted, demoted, and wiped by crash-restarts — and after
// the readers drain, no server may hold a leaked pool lease.
func TestChaosSoakRAMTier(t *testing.T) {
	testutil.CheckGoroutines(t)
	seeds := []int64{5, 6, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	if s := os.Getenv("FTC_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("FTC_CHAOS_SEED=%q: %v", s, err)
		}
		seeds = []int64{v}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// 32 KiB per node holds ~64 of the 512-byte soak objects:
			// small enough that promotion, eviction, and demotion all
			// churn constantly during the run.
			runSoak(t, seed, nil, 32<<10)
		})
	}
}

func runSoak(t *testing.T, seed int64, ingest *hvac.IngestConfig, ramCapacity int64) {
	const (
		nodes      = 16
		nClients   = 4
		rpcTimeout = 60 * time.Millisecond
		readBudget = 15 * time.Second // per logical read, faults included
	)
	t.Logf("chaos soak seed=%d (replay: FTC_CHAOS_SEED=%d)", seed, seed)

	ctl := chaos.New(rpc.NewInprocNetwork(), chaos.Config{Seed: seed, DialTimeout: 50 * time.Millisecond})
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:        nodes,
		Strategy:     ftcache.KindNVMe,
		RPCTimeout:   rpcTimeout,
		TimeoutLimit: 2,
		Network:      ctl.Network("boot"),
		Retry:        &rpc.RetryPolicy{},
		Ingest:       ingest,
		RAMCapacity:  ramCapacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ds := workload.Dataset{Name: "soak", Prefix: "soak/train", NumFiles: 200, FileBytes: 512}
	if _, err := cl.Stage(ds); err != nil {
		t.Fatal(err)
	}
	if err := cl.WarmCache(ds); err != nil {
		t.Fatal(err)
	}
	paths := ds.AllPaths()

	type soakClient struct {
		cli    *hvac.Client
		router hvac.Router
		ring   interface{ Len() int }
		hb     *cluster.Heartbeat
	}
	clients := make([]*soakClient, nClients)
	for i := range clients {
		cli, router, err := cl.NewClientNet(ctl.Network(fmt.Sprintf("cli-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		sc := &soakClient{cli: cli, router: router, ring: router.(*ftcache.Strategy).Ring()}
		sc.hb = cluster.NewHeartbeat(cli.Tracker(), cli, cluster.HeartbeatConfig{
			Interval:        15 * time.Millisecond,
			Timeout:         rpcTimeout,
			ReviveThreshold: 2,
			OnRevive: func(n cluster.NodeID) {
				// Fire-and-forget: convergence is polled below, and a
				// rejoin losing a race (node flapped again, concurrent
				// rejoin) just retries on the next threshold crossing.
				go cli.Rejoin(context.Background(), n,
					hvac.RejoinOptions{Probes: 1, Keys: paths})
			},
		})
		sc.hb.Start()
		clients[i] = sc
		defer cli.Close()
		defer sc.hb.Stop()
	}

	nodeNames := make([]string, 0, nodes)
	for _, n := range cl.Nodes() {
		nodeNames = append(nodeNames, string(n))
	}
	plan := chaos.GeneratePlan(seed, nodeNames, chaos.PhasesUniform(3*time.Second))
	t.Logf("plan: %s", plan.Summary())

	// The client counters are process-wide: read them before and after so
	// each seed reports its own.
	reg := telemetry.Default()
	counters := [...]string{"ftc_client_retry_attempts_total", "ftc_client_retry_exhausted_total",
		"ftc_client_rejoins_total", "ftc_client_rejoin_warm_files_total", "ftc_client_rejoin_warm_bytes_total"}
	var counts [len(counters)]int64
	for i, name := range counters {
		counts[i] = -reg.Counter(name).Load()
	}
	cl.PFS().ResetCounters() // count only the fallbacks during the run

	var (
		reads      atomic.Int64
		transient  atomic.Int64
		wrongBytes atomic.Int64
		stuck      atomic.Int64
		notFound   atomic.Int64
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
						if err == hvac.ErrNotFound || err == hvac.ErrAborted {
							notFound.Add(1)
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

	// With ingest on, one writer per client streams batched async puts
	// through the whole fault window. Flush failures under active faults
	// are legitimate (the batch was NOT acked — that is the contract);
	// what the writers assert is liveness: the pipeline keeps accepting
	// and flushing work while nodes crash and recover, without a panic,
	// a wedged Flush, or a poisoned ingester.
	var (
		ingestPuts    atomic.Int64
		ingestFlushes atomic.Int64
		ingestFlushOK atomic.Int64
	)
	if ingest != nil {
		for ci, sc := range clients {
			readers.Add(1)
			cli := sc.cli
			go func(ci int) {
				defer readers.Done()
				seq := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					for k := 0; k < 16; k++ {
						path := fmt.Sprintf("soak/ingest/c%d/k%06d", ci, seq)
						data := []byte(fmt.Sprintf("ingest-%d-%d-%d", seed, ci, seq))
						if err := cli.PutAsync(path, data); err == nil {
							ingestPuts.Add(1)
						} else {
							transient.Add(1)
						}
						seq++
					}
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					err := cli.Flush(ctx)
					cancel()
					ingestFlushes.Add(1)
					if err == nil {
						ingestFlushOK.Add(1)
					} else {
						transient.Add(1)
					}
				}
			}(ci)
		}
	}

	// Run the fault schedule in real time against the live cluster.
	planCtx, planCancel := context.WithTimeout(context.Background(), plan.Horizon+5*time.Second)
	plan.Execute(planCtx, ctl, chaos.Actions{
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
	})
	planCancel()
	ctl.HealAll() // belt and braces: the plan heals everything it opened

	// Convergence: every client's ring and tracker must return to full
	// membership within the heal window (heartbeat revival + rejoin).
	converged := func() bool {
		for _, sc := range clients {
			if sc.ring.Len() != nodes || len(sc.cli.Tracker().Alive()) != nodes {
				return false
			}
		}
		return true
	}
	healStart := time.Now()
	healDeadline := healStart.Add(20 * time.Second)
	for !converged() {
		if time.Now().After(healDeadline) {
			for i, sc := range clients {
				t.Errorf("seed=%d: client %d not converged: ring=%d alive=%d",
					seed, i, sc.ring.Len(), len(sc.cli.Tracker().Alive()))
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	healTime := time.Since(healStart).Round(time.Millisecond)
	close(stop)
	readers.Wait()
	pfsFallbacks, _, _ := cl.PFS().Counters()
	for i, name := range counters {
		counts[i] += reg.Counter(name).Load()
	}

	// Post-heal verification epoch: every client reads the whole dataset
	// with zero tolerance for errors.
	for i, sc := range clients {
		for j := 0; j < ds.NumFiles; j++ {
			if err := core.VerifyRead(context.Background(), sc.cli, ds, j); err != nil {
				t.Fatalf("seed=%d: post-heal verify client=%d file=%d: %v", seed, i, j, err)
			}
		}
	}

	// Ack-visibility epoch (batched ingest only): on the healed cluster,
	// every client pushes a fresh set of keys through the async pipeline;
	// once Flush returns success, every one of those keys MUST be readable
	// from its ring owner's NVMe — that is the batching ack contract.
	if ingest != nil {
		if ingestPuts.Load() == 0 {
			t.Errorf("seed=%d: ingest writers completed zero puts during the fault window", seed)
		}
		for ci, sc := range clients {
			const epochKeys = 50
			var flushErr error
			for attempt := 0; attempt < 3; attempt++ {
				for k := 0; k < epochKeys; k++ {
					path := fmt.Sprintf("soak/ackvis/c%d/k%03d", ci, k)
					data := []byte(fmt.Sprintf("ackvis-%d-%d-%d", seed, ci, k))
					if err := sc.cli.PutAsync(path, data); err != nil {
						t.Fatalf("seed=%d: post-heal PutAsync client=%d key=%d: %v", seed, ci, k, err)
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				flushErr = sc.cli.Flush(ctx)
				cancel()
				if flushErr == nil {
					break
				}
				// A straggler error from the chaos window can surface on the
				// first post-heal Flush; re-put and flush again — the retry
				// loop ends on a clean ack or fails the soak.
			}
			if flushErr != nil {
				t.Fatalf("seed=%d: post-heal Flush client=%d never acked: %v", seed, ci, flushErr)
			}
			for k := 0; k < epochKeys; k++ {
				path := fmt.Sprintf("soak/ackvis/c%d/k%03d", ci, k)
				want := []byte(fmt.Sprintf("ackvis-%d-%d-%d", seed, ci, k))
				dec := sc.router.Route(path)
				if dec.Kind != hvac.RouteNode {
					t.Fatalf("seed=%d: post-heal route for %s: kind=%v", seed, path, dec.Kind)
				}
				got, err := cl.Server(core.NodeID(dec.Node)).NVMe().Get(path)
				if err != nil {
					t.Errorf("seed=%d: ack-visibility violated: acked key %s not on owner %s: %v",
						seed, path, dec.Node, err)
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("seed=%d: acked key %s corrupt on owner %s", seed, path, dec.Node)
				}
			}
		}
		t.Logf("seed=%d: ingest puts=%d flushes=%d acked=%d",
			seed, ingestPuts.Load(), ingestFlushes.Load(), ingestFlushOK.Load())
	}

	// RAM-tier epilogue: the tier must actually have served traffic
	// (otherwise the variant proved nothing), and with every reader
	// drained and every response flushed, no server may still hold a
	// pool lease — a nonzero count here is a leaked zero-copy buffer.
	if ramCapacity > 0 {
		ramServed := int64(0)
		for _, n := range cl.Nodes() {
			ramServed += cl.Server(n).RAMServed()
		}
		if ramServed == 0 {
			t.Errorf("seed=%d: RAM tier enabled but served zero reads", seed)
		}
		leaseDeadline := time.Now().Add(5 * time.Second)
		for {
			leaked := int64(0)
			for _, n := range cl.Nodes() {
				if ram := cl.Server(n).RAM(); ram != nil {
					leaked += ram.ActiveLeases()
				}
			}
			if leaked == 0 {
				break
			}
			if time.Now().After(leaseDeadline) {
				t.Errorf("seed=%d: %d pool leases still active after drain", seed, leaked)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Logf("seed=%d: ram-served=%d", seed, ramServed)
	}

	faults := ctl.FaultCounts()
	total := int64(0)
	for _, v := range faults {
		total += v
	}
	t.Logf("seed=%d: faults[%s] reads=%d transient-retries=%d wrong-bytes=%d stuck=%d",
		seed, ctl.FormatFaults(), reads.Load(), transient.Load(), wrongBytes.Load(), stuck.Load())
	t.Logf("seed=%d: pfs-fallbacks=%d retries=%d (exhausted %d) rejoins=%d warmed=%d files / %d B heal=%s",
		seed, pfsFallbacks, counts[0], counts[1], counts[2], counts[3], counts[4], healTime)
	if total == 0 {
		t.Error("soak injected zero faults — the schedule did nothing")
	}
	if reads.Load() == 0 {
		t.Error("soak completed zero reads")
	}
	if wrongBytes.Load() != 0 || stuck.Load() != 0 || notFound.Load() != 0 {
		t.Errorf("invariant violations: wrong-bytes=%d stuck=%d not-found=%d",
			wrongBytes.Load(), stuck.Load(), notFound.Load())
	}
}
