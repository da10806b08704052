package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// statusOf returns node's status; unknown nodes report Failed.
func (t *Tracker) statusOf(node NodeID) Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.m.at(node); st != nil {
		return min(st.phase, Failed)
	}
	return Failed
}

// timeoutCount returns node's current consecutive-timeout count.
func (t *Tracker) timeoutCount(node NodeID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m.at(node).count
}

func members(n int) []NodeID {
	out := make([]NodeID, n)
	for i := range out {
		out[i] = NodeID(fmt.Sprintf("node-%02d", i))
	}
	return out
}

func TestThresholdDeclaration(t *testing.T) {
	tr := NewTracker(members(4), 3)
	n := NodeID("node-01")
	if tr.RecordTimeout(n) {
		t.Error("1st timeout must not declare failure")
	}
	if tr.statusOf(n) != Suspect {
		t.Errorf("status = %v, want Suspect", tr.statusOf(n))
	}
	if tr.RecordTimeout(n) {
		t.Error("2nd timeout must not declare failure")
	}
	if !tr.RecordTimeout(n) {
		t.Error("3rd timeout must declare failure")
	}
	if tr.statusOf(n) != Failed || tr.IsAlive(n) {
		t.Error("node should be failed")
	}
	// Further timeouts are no-ops, not re-declarations.
	if tr.RecordTimeout(n) {
		t.Error("timeout after failure must not re-declare")
	}
}

func TestSuccessResetsCounter(t *testing.T) {
	tr := NewTracker(members(2), 3)
	n := NodeID("node-00")
	tr.RecordTimeout(n)
	tr.RecordTimeout(n)
	tr.RecordSuccess(n) // transient blip resolved
	if tr.timeoutCount(n) != 0 {
		t.Errorf("count = %d after success", tr.timeoutCount(n))
	}
	if tr.statusOf(n) != Alive {
		t.Errorf("status = %v, want Alive", tr.statusOf(n))
	}
	// Needs a full fresh run of timeouts to fail now.
	tr.RecordTimeout(n)
	tr.RecordTimeout(n)
	if tr.statusOf(n) == Failed {
		t.Error("failed with only 2 consecutive timeouts after reset")
	}
	if !tr.RecordTimeout(n) {
		t.Error("3rd consecutive timeout should fail the node")
	}
}

func TestSuccessCannotResurrect(t *testing.T) {
	tr := NewTracker(members(2), 1)
	n := NodeID("node-00")
	tr.RecordTimeout(n)
	tr.RecordSuccess(n) // late response from a declared-dead node
	if tr.IsAlive(n) {
		t.Error("failed node must stay failed within a job")
	}
}

func TestListenersFireOncePerNode(t *testing.T) {
	tr := NewTracker(members(3), 2)
	var calls []NodeID
	tr.OnFailure(func(n NodeID) { calls = append(calls, n) })
	tr.OnFailure(func(n NodeID) { calls = append(calls, n) }) // second listener

	n := NodeID("node-02")
	tr.RecordTimeout(n)
	tr.RecordTimeout(n)
	tr.RecordTimeout(n) // past threshold; must not refire
	if len(calls) != 2 || calls[0] != n || calls[1] != n {
		t.Errorf("listener calls = %v, want [%s %s]", calls, n, n)
	}
}

func TestUnknownNodesAlwaysFailed(t *testing.T) {
	tr := NewTracker(members(2), 2)
	if tr.IsAlive("ghost") {
		t.Error("unknown node reported alive")
	}
	if tr.statusOf("ghost") != Failed {
		t.Error("unknown node status should be Failed")
	}
	if tr.RecordTimeout("ghost") {
		t.Error("timeout on unknown node should be ignored")
	}
}

func TestDefaultLimit(t *testing.T) {
	tr := NewTracker(members(1), 0)
	if tr.Limit() != DefaultTimeoutLimit {
		t.Errorf("limit = %d", tr.Limit())
	}
}

func TestMembersSortedAndImmutable(t *testing.T) {
	tr := NewTracker([]NodeID{"c", "a", "b"}, 1)
	got := tr.Alive()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("Alive = %v", got)
	}
	got[0] = "mutated"
	if tr.Alive()[0] != "a" {
		t.Error("Alive leaked internal slice")
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{Alive: "alive", Suspect: "suspect", Failed: "failed", Status(9): "unknown"}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestConcurrentTimeoutsSingleDeclaration(t *testing.T) {
	// Many goroutines hammer timeouts for the same node; exactly one
	// must observe the declaration and listeners fire exactly once.
	tr := NewTracker(members(1), 100)
	var fired atomic.Int32
	tr.OnFailure(func(NodeID) { fired.Add(1) })
	var declared atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if tr.RecordTimeout("node-00") {
					declared.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if declared.Load() != 1 {
		t.Errorf("declared %d times, want exactly 1", declared.Load())
	}
	if fired.Load() != 1 {
		t.Errorf("listener fired %d times, want exactly 1", fired.Load())
	}
}

func TestAliveShrinksInOrder(t *testing.T) {
	tr := NewTracker(members(5), 1)
	tr.RecordTimeout("node-03")
	tr.RecordTimeout("node-00")
	alive := tr.Alive()
	want := []NodeID{"node-01", "node-02", "node-04"}
	if len(alive) != len(want) {
		t.Fatalf("alive = %v", alive)
	}
	for i := range want {
		if alive[i] != want[i] {
			t.Errorf("alive[%d] = %s, want %s", i, alive[i], want[i])
		}
	}
}

func BenchmarkRecordSuccess(b *testing.B) {
	tr := NewTracker(members(64), 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.RecordSuccess("node-07")
	}
}

// BenchmarkRecordSuccessParallel is the reply of a healthy read from
// every worker sharing one client: no node is suspect.
func BenchmarkRecordSuccessParallel(b *testing.B) {
	nodes := members(16)
	tr := NewTracker(nodes, 3)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			tr.RecordSuccess(nodes[i%len(nodes)])
		}
	})
}

func BenchmarkIsAlive(b *testing.B) {
	tr := NewTracker(members(1024), 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.IsAlive("node-0512")
	}
}
