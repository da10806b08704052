package core

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ftcache"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestFailureEventOrdering kills a node in a live in-process cluster and
// asserts the telemetry trace records the paper's failure pipeline in
// causal order: node-suspected → node-declared-dead → recache-planned →
// recache-file-done.
func TestFailureEventOrdering(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes:        3,
		Strategy:     ftcache.KindNVMe,
		RPCTimeout:   40 * time.Millisecond,
		TimeoutLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ds := workload.Dataset{Name: "evt", Prefix: "evt", NumFiles: 64, FileBytes: 512}
	if _, err := c.Stage(ds); err != nil {
		t.Fatal(err)
	}
	if err := c.WarmCache(ds); err != nil {
		t.Fatal(err)
	}
	c.FlushMovers()

	cli, router, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ring := router.(*ftcache.Strategy).Ring()
	// Warming again builds a throwaway router after the client's; the
	// debug endpoint's ring section must stay the client's ring.
	if err := c.WarmCache(ds); err != nil {
		t.Fatal(err)
	}

	// Pick a victim node and a file it owns, so one read exercises the
	// whole pipeline: two timeouts → declaration → ring removal → re-route
	// to the successor → miss → PFS fetch → cache fill.
	victim := c.Nodes()[0]
	var lostFile string
	for i := 0; i < ds.NumFiles; i++ {
		if owner, ok := ring.Owner(ds.FilePath(i)); ok && owner == victim {
			lostFile = ds.FilePath(i)
			break
		}
	}
	if lostFile == "" {
		t.Fatalf("no file owned by %s", victim)
	}

	var since uint64 // the last event before the failure
	if last := telemetry.Default().Trace().Recent(1); len(last) > 0 {
		since = last[0].Seq
	}
	if err := c.Fail(victim, FailUnresponsive); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Read(context.Background(), lostFile); err != nil {
		t.Fatalf("post-failure read: %v", err)
	}
	c.FlushMovers()

	events := telemetry.Default().Trace().Recent(0)
	seqOf := func(typ telemetry.EventType) uint64 {
		for _, e := range events {
			if e.Seq > since && e.Type == typ && (e.Node == string(victim) || typ == telemetry.EventRecacheFileDone) {
				return e.Seq
			}
		}
		t.Fatalf("no %s event for %s in trace (%d events)", typ, victim, len(events))
		return 0
	}
	suspected := seqOf(telemetry.EventNodeSuspected)
	dead := seqOf(telemetry.EventNodeDead)
	planned := seqOf(telemetry.EventRecachePlanned)
	done := seqOf(telemetry.EventRecacheFileDone)
	if !(suspected < dead && dead < planned && planned < done) {
		t.Errorf("event order violated: suspected=%d dead=%d planned=%d done=%d",
			suspected, dead, planned, done)
	}

	// The same trace must be visible over the debug endpoint, and the ring
	// section must show the shrunken membership.
	srv := httptest.NewServer(telemetry.Handler(telemetry.Default()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/ftcache?events=256")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var state struct {
		Sections map[string]json.RawMessage `json:"sections"`
		Events   []struct {
			Type string `json:"type"`
			Node string `json:"node"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	var ringSec struct {
		Members []string `json:"members"`
	}
	if err := json.Unmarshal(state.Sections["ring"], &ringSec); err != nil {
		t.Fatalf("ring section: %v", err)
	}
	if len(ringSec.Members) != 2 {
		t.Errorf("ring members after failure = %v, want 2 survivors", ringSec.Members)
	}
	for _, m := range ringSec.Members {
		if m == string(victim) {
			t.Errorf("victim %s still in debug ring membership", victim)
		}
	}
	var sawDead bool
	for _, e := range state.Events {
		if e.Type == "node-declared-dead" && e.Node == string(victim) {
			sawDead = true
		}
	}
	if !sawDead {
		t.Error("debug endpoint trace missing node-declared-dead for victim")
	}

	// /metrics must expose the headline counters the issue calls out.
	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"ftc_server_nvme_hits_total",
		"ftc_server_pfs_fallbacks_total",
		"ftc_detect_declared_dead_total",
		"ftc_rpc_roundtrip_seconds_count",
		"ftc_ring_snapshot_swaps_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
