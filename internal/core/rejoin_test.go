package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ftcache"
	"repro/internal/hvac"
	"repro/internal/testutil"
)

// TestRejoinWarmsKilledNode: the full elastic re-expansion protocol
// against a hard-killed node (cache lost). The rejoin must warm the
// node's NVMe from the surviving owners *before* the ring swap, so the
// post-rejoin epoch runs PFS-free even though the node came back empty.
func TestRejoinWarmsKilledNode(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := newTestCluster(t, 6, ftcache.KindNVMe)
	ds := smallDataset(120)
	c.Stage(ds)
	c.WarmCache(ds)
	cli, router, _ := c.NewClient()
	defer cli.Close()
	ctx := context.Background()
	ring := router.(*ftcache.Strategy).Ring()

	victim := c.Nodes()[2]
	if err := c.Fail(victim, FailKill); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatal(err)
		}
	}
	if ring.Len() != 5 {
		t.Fatalf("ring members = %d after kill", ring.Len())
	}

	// Node reboots with an empty cache; clients must not re-admit it
	// until the warmup lands.
	if err := c.Revive(victim); err != nil {
		t.Fatal(err)
	}
	rep, err := cli.Rejoin(ctx, victim, hvac.RejoinOptions{Keys: ds.AllPaths()})
	if err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if !rep.Revived {
		t.Fatal("rejoin did not revive the node")
	}
	if rep.Probes != cli.Tracker().Limit() {
		t.Errorf("probes = %d, want the tracker's limit %d", rep.Probes, cli.Tracker().Limit())
	}
	if rep.PlannedKeys == 0 || rep.WarmedFiles != rep.PlannedKeys || rep.WarmErrors != 0 {
		t.Fatalf("warmup incomplete: planned=%d warmed=%d errors=%d",
			rep.PlannedKeys, rep.WarmedFiles, rep.WarmErrors)
	}
	if rep.WarmedBytes != int64(rep.WarmedFiles)*ds.FileBytes {
		t.Errorf("warmed bytes = %d, want %d", rep.WarmedBytes, int64(rep.WarmedFiles)*ds.FileBytes)
	}
	if ring.Len() != 6 {
		t.Fatalf("ring members = %d after rejoin", ring.Len())
	}

	// The warmed node serves its reclaimed arcs from NVMe: a full epoch
	// with zero PFS traffic, even though the node rebooted empty.
	c.FlushMovers()
	pfsReads := pfsReadsSince(c)
	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatalf("post-rejoin read %d: %v", i, err)
		}
	}
	if reads := pfsReads(); reads != 0 {
		t.Errorf("PFS reads after warm rejoin = %d, want 0", reads)
	}

	// A second Rejoin of the now-alive node must refuse cleanly.
	if _, err := cli.Rejoin(ctx, victim, hvac.RejoinOptions{}); err == nil {
		t.Error("Rejoin of an alive node succeeded")
	}
}

// TestHeartbeatDrivenAutoRejoin: the fully wired loop — heartbeat
// detects the kill, later detects the recovery (K consecutive probes),
// fires OnRevive, and the client rejoins with warmup, no manual steps.
func TestHeartbeatDrivenAutoRejoin(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := newTestCluster(t, 5, ftcache.KindNVMe)
	ds := smallDataset(60)
	c.Stage(ds)
	c.WarmCache(ds)
	cli, router, _ := c.NewClient()
	defer cli.Close()
	ring := router.(*ftcache.Strategy).Ring()

	rejoined := make(chan hvac.RejoinReport, 1)
	hb := cluster.NewHeartbeat(cli.Tracker(), cli, cluster.HeartbeatConfig{
		Interval: 10 * time.Millisecond,
		Timeout:  60 * time.Millisecond,
		OnRevive: func(n cluster.NodeID) {
			// No Keys: the warm set is planned from the client's manifest,
			// the listing the failure path plans over.
			rep, err := cli.Rejoin(context.Background(), n, hvac.RejoinOptions{})
			if err == nil {
				rejoined <- rep
			}
		},
	})
	hb.Start()
	defer hb.Stop()

	victim := c.Nodes()[0]
	if err := c.Fail(victim, FailKill); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for cli.Tracker().IsAlive(victim) {
		select {
		case <-deadline:
			t.Fatal("heartbeat never declared the killed node")
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}

	if err := c.Revive(victim); err != nil {
		t.Fatal(err)
	}
	select {
	case rep := <-rejoined:
		if !rep.Revived || rep.WarmedFiles == 0 {
			t.Fatalf("auto-rejoin incomplete: %+v", rep)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("heartbeat never auto-rejoined the restarted node")
	}
	if ring.Len() != 5 {
		t.Fatalf("ring members = %d after auto-rejoin", ring.Len())
	}
	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(context.Background(), cli, ds, i); err != nil {
			t.Fatalf("post-auto-rejoin read %d: %v", i, err)
		}
	}
}

// declareKilled kills victim and declares it on cli's tracker directly,
// so no read touches the connection cli holds to it.
func declareKilled(t *testing.T, c *Cluster, cli *hvac.Client, victim NodeID) {
	t.Helper()
	if err := c.Fail(victim, FailKill); err != nil {
		t.Fatal(err)
	}
	for cli.Tracker().IsAlive(victim) {
		cli.Tracker().RecordTimeout(victim)
	}
	if err := c.Revive(victim); err != nil {
		t.Fatal(err)
	}
}

// TestRejoinCancelledMidWarmStaysDeclared: a rejoin whose context ends
// during the warm-up does not re-admit the node — it stays declared and
// off the ring, with the objects already pushed kept — and the next
// Rejoin completes it.
func TestRejoinCancelledMidWarmStaysDeclared(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := newTestCluster(t, 4, ftcache.KindNVMe)
	ds := smallDataset(200)
	c.Stage(ds)
	cli, router, _ := c.NewClient()
	defer cli.Close()
	ring := router.(*ftcache.Strategy).Ring()
	victim := c.Nodes()[1]
	declareKilled(t, c, cli, victim)

	// Every warm read is a PFS fill on the current owner, one at a time,
	// so the warm-up lasts long enough to be cut mid-way.
	c.PFS().SetReadDelay(5 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for objs := 0; objs == 0; objs, _ = c.Server(victim).NVMe().Stats() {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	rep, err := cli.Rejoin(ctx, victim, hvac.RejoinOptions{Keys: ds.AllPaths(), WarmConcurrency: 1})
	if err == nil || rep.Revived {
		t.Fatalf("cancelled rejoin: err %v, revived %v; want the context's error and no revive", err, rep.Revived)
	}
	if rep.WarmedFiles == 0 || rep.WarmedFiles >= rep.PlannedKeys {
		t.Fatalf("warmed %d of %d planned keys: the cancel did not land mid-warm", rep.WarmedFiles, rep.PlannedKeys)
	}
	if cli.Tracker().IsAlive(victim) || ring.Contains(victim) {
		t.Fatalf("after a cancelled rejoin: alive %v, on the ring %v; want declared and off", cli.Tracker().IsAlive(victim), ring.Contains(victim))
	}

	c.PFS().SetReadDelay(0)
	rep, err = cli.Rejoin(context.Background(), victim, hvac.RejoinOptions{Keys: ds.AllPaths()})
	if err != nil || !rep.Revived || !ring.Contains(victim) {
		t.Fatalf("second rejoin: err %v, revived %v, on the ring %v", err, rep.Revived, ring.Contains(victim))
	}
}

// TestRejoinAfterRestartDialsFresh: the client still holds the
// connection that died with the killed process; the first Rejoin after
// the restart must probe over a fresh one and succeed.
func TestRejoinAfterRestartDialsFresh(t *testing.T) {
	c := newTestCluster(t, 4, ftcache.KindNVMe)
	ds := smallDataset(40)
	c.Stage(ds)
	c.WarmCache(ds)
	cli, _, _ := c.NewClient()
	defer cli.Close()
	ctx := context.Background()
	for i := 0; i < ds.NumFiles; i++ { // dial every node
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.Nodes()[2]
	declareKilled(t, c, cli, victim)
	rep, err := cli.Rejoin(ctx, victim, hvac.RejoinOptions{Keys: ds.AllPaths()})
	if err != nil || !rep.Revived {
		t.Fatalf("first rejoin after the restart: err %v, revived %v", err, rep.Revived)
	}
	if rep.Probes != cli.Tracker().Limit() {
		t.Errorf("probes = %d, want the tracker's limit %d", rep.Probes, cli.Tracker().Limit())
	}
}
