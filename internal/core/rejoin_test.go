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
	if rep.Probes < 3 {
		t.Errorf("probes = %d, want >= 3", rep.Probes)
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
		Interval:        10 * time.Millisecond,
		Timeout:         60 * time.Millisecond,
		ReviveThreshold: 2,
		OnRevive: func(n cluster.NodeID) {
			// No Keys: the warm set is planned from the client's manifest,
			// the listing the failure path plans over.
			rep, err := cli.Rejoin(context.Background(), n, hvac.RejoinOptions{Probes: 1})
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
