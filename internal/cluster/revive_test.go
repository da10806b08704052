package cluster

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// driveDead records timeouts until the tracker declares node failed.
func driveDead(t *testing.T, tr *Tracker, node NodeID) {
	t.Helper()
	for i := 0; i < tr.Limit(); i++ {
		tr.RecordTimeout(node)
	}
	if tr.IsAlive(node) {
		t.Fatalf("%s still alive after %d timeouts", node, tr.Limit())
	}
}

func TestReviveRestoresAlive(t *testing.T) {
	tr := NewTracker(members(3), 2)
	driveDead(t, tr, "node-01")
	if !tr.Revive("node-01") {
		t.Fatal("Revive of a failed node returned false")
	}
	if !tr.IsAlive("node-01") {
		t.Error("node not alive after Revive")
	}
	if got := tr.timeoutCount("node-01"); got != 0 {
		t.Errorf("timeout count = %d after Revive, want 0 (stale evidence must not survive)", got)
	}
	// The revived node must be able to be declared dead again.
	driveDead(t, tr, "node-01")
}

func TestDoubleReviveIdempotent(t *testing.T) {
	tr := NewTracker(members(2), 1)
	fired := 0
	tr.OnRecovery(func(NodeID) { fired++ })
	driveDead(t, tr, "node-00")
	if !tr.Revive("node-00") {
		t.Fatal("first Revive returned false")
	}
	if tr.Revive("node-00") {
		t.Error("second Revive of an alive node returned true")
	}
	if tr.Revive("node-never-existed") {
		t.Error("Revive of an unknown node returned true")
	}
	if fired != 1 {
		t.Errorf("recovery listeners fired %d times, want 1", fired)
	}
}

func TestReviveListenerOrderingInTrace(t *testing.T) {
	trace := telemetry.Default().Trace()
	var since uint64 // the last event before this test's
	if last := trace.Recent(1); len(last) > 0 {
		since = last[0].Seq
	}
	tr := NewTracker([]NodeID{"trace-node-a", "trace-node-b"}, 1)
	recovered := make(chan NodeID, 1)
	tr.OnRecovery(func(n NodeID) { recovered <- n })

	driveDead(t, tr, "trace-node-a")
	tr.Revive("trace-node-a")

	select {
	case n := <-recovered:
		if n != "trace-node-a" {
			t.Errorf("recovery listener got %s", n)
		}
	case <-time.After(time.Second):
		t.Fatal("recovery listener never fired")
	}

	// The trace must show this node's dead event strictly before its
	// revived event: consumers replaying the trace reconstruct membership
	// and a reordered pair would resurrect a node before it died.
	var deadSeq, revivedSeq uint64
	for _, ev := range trace.Recent(0) {
		if ev.Seq <= since || ev.Node != "trace-node-a" {
			continue
		}
		switch ev.Type {
		case telemetry.EventNodeDead:
			if deadSeq == 0 {
				deadSeq = ev.Seq
			}
		case telemetry.EventNodeRevived:
			if revivedSeq == 0 {
				revivedSeq = ev.Seq
			}
		}
	}
	if deadSeq == 0 || revivedSeq == 0 {
		t.Fatalf("missing trace events: deadSeq=%d revivedSeq=%d", deadSeq, revivedSeq)
	}
	if deadSeq >= revivedSeq {
		t.Errorf("dead event (seq %d) not before revived event (seq %d)", deadSeq, revivedSeq)
	}
}

func TestReviveFailedNodesShrink(t *testing.T) {
	tr := NewTracker(members(4), 1)
	driveDead(t, tr, "node-01")
	driveDead(t, tr, "node-03")
	if got := len(tr.FailedNodes()); got != 2 {
		t.Fatalf("failed nodes = %d, want 2", got)
	}
	tr.Revive("node-01")
	failed := tr.FailedNodes()
	if len(failed) != 1 || failed[0] != "node-03" {
		t.Errorf("failed nodes after revive = %v, want [node-03]", failed)
	}
}
