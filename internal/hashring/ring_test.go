package hashring

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func nodeNames(n int) []NodeID {
	out := make([]NodeID, n)
	for i := range out {
		out[i] = NodeID(fmt.Sprintf("node-%04d", i))
	}
	return out
}

func fileKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("cosmoUniverse/train/univ_%06d.tfrecord", i)
	}
	return out
}

func TestEmptyRing(t *testing.T) {
	r := New(Config{VirtualNodes: 10})
	if _, ok := r.Owner("x"); ok {
		t.Error("empty ring should report no owner")
	}
	if r.Len() != 0 || r.PointCount() != 0 {
		t.Error("empty ring should have no members or points")
	}
	if _, ok := r.Owners("x", 3); ok {
		t.Error("empty ring Owners should be not-ok")
	}
	r.Remove("ghost") // must not panic
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	r := New(Config{VirtualNodes: 4})
	r.Add("solo")
	for _, k := range fileKeys(100) {
		owner, ok := r.Owner(k)
		if !ok || owner != "solo" {
			t.Fatalf("key %q: owner=%q ok=%v", k, owner, ok)
		}
	}
}

func TestDefaultVirtualNodes(t *testing.T) {
	r := New(Config{})
	r.Add("a")
	if r.PointCount() != DefaultVirtualNodes {
		t.Errorf("points = %d, want %d", r.PointCount(), DefaultVirtualNodes)
	}
}

func TestAddIdempotent(t *testing.T) {
	r := New(Config{VirtualNodes: 8})
	r.Add("a")
	r.Add("a")
	if r.Len() != 1 || r.PointCount() != 8 {
		t.Errorf("len=%d points=%d after duplicate add", r.Len(), r.PointCount())
	}
}

func TestRemoveRestoresPriorOwnership(t *testing.T) {
	nodes := nodeNames(8)
	r := NewWithNodes(Config{VirtualNodes: 50}, nodes)
	keys := fileKeys(500)
	before := make(map[string]NodeID)
	for _, k := range keys {
		before[k], _ = r.Owner(k)
	}
	r.Remove(nodes[3])
	r.Add(nodes[3])
	for _, k := range keys {
		if owner, _ := r.Owner(k); owner != before[k] {
			t.Fatalf("key %q owner changed after remove+add: %q -> %q", k, before[k], owner)
		}
	}
}

// TestMinimalMovement verifies the defining consistent-hashing property
// the paper relies on (§IV-B): removing a node only reassigns the keys
// that node owned; every other key keeps its owner.
func TestMinimalMovement(t *testing.T) {
	nodes := nodeNames(16)
	r := NewWithNodes(Config{VirtualNodes: 100}, nodes)
	keys := fileKeys(2000)
	before := make(map[string]NodeID, len(keys))
	for _, k := range keys {
		before[k], _ = r.Owner(k)
	}
	failed := nodes[5]
	r.Remove(failed)
	for _, k := range keys {
		after, _ := r.Owner(k)
		if before[k] != failed && after != before[k] {
			t.Fatalf("key %q moved from surviving node %q to %q", k, before[k], after)
		}
		if after == failed {
			t.Fatalf("key %q still owned by removed node", k)
		}
	}
}

func TestMinimalMovementQuick(t *testing.T) {
	// Property over random memberships and victims.
	f := func(nNodes uint8, victim uint8, salt uint64) bool {
		n := int(nNodes)%30 + 2 // 2..31 nodes, named by salt
		nodes := make([]NodeID, n)
		for i := range nodes {
			nodes[i] = NodeID(fmt.Sprintf("node-%x-%d", salt, i))
		}
		r := NewWithNodes(Config{VirtualNodes: 20}, nodes)
		failed := nodes[int(victim)%n]
		keys := fileKeys(200)
		before := make([]NodeID, len(keys))
		for i, k := range keys {
			before[i], _ = r.Owner(k)
		}
		r.Remove(failed)
		for i, k := range keys {
			after, _ := r.Owner(k)
			if before[i] != failed && after != before[i] {
				return false
			}
			if after == failed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestOwnersDistinctAndPrefixed: Owners(k, n) starts with Owner(k) and
// lists n distinct members of the ring.
func TestOwnersDistinctAndPrefixed(t *testing.T) {
	nodes := nodeNames(10)
	r := NewWithNodes(Config{VirtualNodes: 30}, nodes)
	for _, k := range fileKeys(50) {
		owners, ok := r.Owners(k, 4)
		if !ok || len(owners) != 4 {
			t.Fatalf("Owners(%q,4) = %v ok=%v", k, owners, ok)
		}
		primary, _ := r.Owner(k)
		if owners[0] != primary {
			t.Fatalf("Owners[0]=%q != Owner=%q", owners[0], primary)
		}
		seen := map[NodeID]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("duplicate owner %q in %v", o, owners)
			}
			if !r.Contains(o) {
				t.Fatalf("owner %q of %q is not a member", o, k)
			}
			seen[o] = true
		}
	}
}

func TestOwnersMoreThanMembers(t *testing.T) {
	r := NewWithNodes(Config{VirtualNodes: 10}, nodeNames(3))
	owners, ok := r.Owners("k", 10)
	if !ok || len(owners) != 3 {
		t.Fatalf("want all 3 members, got %v", owners)
	}
}

func TestPlanRecacheInvariants(t *testing.T) {
	nodes := nodeNames(20)
	r := NewWithNodes(Config{VirtualNodes: 100}, nodes)
	keys := fileKeys(3000)
	failed := nodes[11]

	ownedByFailed := 0
	for _, k := range keys {
		if o, _ := r.Owner(k); o == failed {
			ownedByFailed++
		}
	}

	plan := r.PlanRecache(failed, keys)
	if plan.Failed != failed {
		t.Errorf("plan.Failed = %q", plan.Failed)
	}
	if plan.Lost != ownedByFailed {
		t.Errorf("plan.Lost = %d, want %d", plan.Lost, ownedByFailed)
	}
	total := 0
	for receiver, ks := range plan.Moves {
		if receiver == failed {
			t.Error("failed node cannot be a receiver")
		}
		if !r.Contains(receiver) {
			t.Errorf("receiver %q not a member", receiver)
		}
		if len(ks) == 0 {
			t.Errorf("receiver %q with zero keys should not appear", receiver)
		}
		total += len(ks)
	}
	if total != plan.Lost {
		t.Errorf("moves total %d != lost %d", total, plan.Lost)
	}
	if plan.Receivers() != len(plan.Moves) {
		t.Error("Receivers() mismatch")
	}

	// The plan must match actually removing the node.
	after := r.Clone()
	after.Remove(failed)
	for receiver, ks := range plan.Moves {
		for _, k := range ks {
			if o, _ := after.Owner(k); o != receiver {
				t.Fatalf("key %q: plan says %q, post-removal ring says %q", k, receiver, o)
			}
		}
	}
}

func TestPlanRecachePanicsForNonMember(t *testing.T) {
	r := NewWithNodes(Config{VirtualNodes: 4}, nodeNames(3))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-member")
		}
	}()
	r.PlanRecache("ghost", fileKeys(10))
}

func TestCloneIsIndependent(t *testing.T) {
	r := NewWithNodes(Config{VirtualNodes: 16}, nodeNames(4))
	c := r.Clone()
	c.Remove("node-0000")
	if !r.Contains("node-0000") {
		t.Error("mutating clone affected original")
	}
	if c.Len() != 3 || r.Len() != 4 {
		t.Errorf("lens: clone=%d orig=%d", c.Len(), r.Len())
	}
}

func TestConcurrentLookupsDuringMembershipChange(t *testing.T) {
	r := NewWithNodes(Config{VirtualNodes: 50}, nodeNames(16))
	keys := fileKeys(200)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := r.Owner(keys[rng.Intn(len(keys))]); !ok {
					t.Error("lookup failed on non-empty ring")
					return
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		n := NodeID(fmt.Sprintf("node-%04d", i%16))
		r.Remove(n)
		r.Add(n)
	}
	close(stop)
	wg.Wait()
	if r.Len() != 16 {
		t.Errorf("membership = %d after churn, want 16", r.Len())
	}
}

func BenchmarkRingLookup(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("nodes=%d/v=100", n), func(b *testing.B) {
			r := NewWithNodes(Config{VirtualNodes: 100}, nodeNames(n))
			keys := fileKeys(1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Owner(keys[i&1023])
			}
		})
	}
}

func BenchmarkRingBuild(b *testing.B) {
	for _, v := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("nodes=1024/v=%d", v), func(b *testing.B) {
			nodes := nodeNames(1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				NewWithNodes(Config{VirtualNodes: v}, nodes)
			}
		})
	}
}

func BenchmarkRingRemove(b *testing.B) {
	nodes := nodeNames(1024)
	base := NewWithNodes(Config{VirtualNodes: 100}, nodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := base.Clone()
		r.Remove(nodes[i%1024])
	}
}
