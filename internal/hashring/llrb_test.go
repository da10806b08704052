package hashring

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestTreeRingAgreesWithRing is the main correctness check for the LLRB
// implementation: for identical configs, both structures must compute
// identical ownership for every key, across arbitrary membership churn.
func TestTreeRingAgreesWithRing(t *testing.T) {
	cfg := Config{VirtualNodes: 37}
	ring := New(cfg)
	tree := NewTree(cfg)
	keys := fileKeys(500)
	rng := rand.New(rand.NewSource(5))

	check := func(step string) {
		t.Helper()
		if ring.Len() != tree.Len() {
			t.Fatalf("%s: member count ring=%d tree=%d", step, ring.Len(), tree.Len())
		}
		if ring.PointCount() != tree.PointCount() {
			t.Fatalf("%s: point count ring=%d tree=%d", step, ring.PointCount(), tree.PointCount())
		}
		for _, k := range keys {
			ro, rok := ring.Owner(k)
			to, tok := tree.Owner(k)
			if rok != tok || ro != to {
				t.Fatalf("%s: key %q ring=(%q,%v) tree=(%q,%v)", step, k, ro, rok, to, tok)
			}
		}
	}

	check("empty")
	present := map[NodeID]bool{}
	all := nodeNames(24)
	for step := 0; step < 200; step++ {
		n := all[rng.Intn(len(all))]
		if present[n] && rng.Intn(2) == 0 {
			ring.Remove(n)
			tree.Remove(n)
			present[n] = false
		} else {
			ring.Add(n)
			tree.Add(n)
			present[n] = true
		}
		if step%20 == 0 {
			check(fmt.Sprintf("step %d", step))
		}
	}
	check("final")
}

func TestTreeRingEmptyAndIdempotent(t *testing.T) {
	tr := NewTree(Config{VirtualNodes: 5})
	if _, ok := tr.Owner("x"); ok {
		t.Error("empty tree ring should have no owner")
	}
	tr.Remove("ghost") // no-op
	tr.Add("a")
	tr.Add("a")
	if tr.Len() != 1 || tr.PointCount() != 5 {
		t.Errorf("len=%d points=%d", tr.Len(), tr.PointCount())
	}
	tr.Remove("a")
	if tr.Len() != 0 || tr.PointCount() != 0 {
		t.Errorf("after removal: len=%d points=%d", tr.Len(), tr.PointCount())
	}
	if _, ok := tr.Owner("x"); ok {
		t.Error("drained tree ring should have no owner")
	}
}

func TestTreeRingDefaultVirtualNodes(t *testing.T) {
	tr := NewTree(Config{})
	tr.Add("a")
	if tr.PointCount() != DefaultVirtualNodes {
		t.Errorf("points = %d, want %d", tr.PointCount(), DefaultVirtualNodes)
	}
}

// TestLLRBStructuralInvariants verifies red-black properties after heavy
// churn: no red node has a red left child chained (LLRB shape), no right
// red links, and perfect black balance.
func TestLLRBStructuralInvariants(t *testing.T) {
	tr := NewTreeWithNodes(Config{VirtualNodes: 50}, nodeNames(20))
	rng := rand.New(rand.NewSource(9))
	all := nodeNames(20)
	for i := 0; i < 300; i++ {
		n := all[rng.Intn(len(all))]
		if rng.Intn(2) == 0 {
			tr.Remove(n)
		} else {
			tr.Add(n)
		}
		if h := checkLLRB(t, tr.root); h < 0 {
			t.Fatalf("invariant violated after op %d", i)
		}
	}
}

// checkLLRB returns the black height, or -1 on violation.
func checkLLRB(t *testing.T, n *llrbNode) int {
	t.Helper()
	if n == nil {
		return 0
	}
	if isRed(n.right) && !isRed(n.left) {
		t.Error("right-leaning red link")
		return -1
	}
	if isRed(n) && isRed(n.left) {
		t.Error("two reds in a row")
		return -1
	}
	lh := checkLLRB(t, n.left)
	rh := checkLLRB(t, n.right)
	if lh < 0 || rh < 0 {
		return -1
	}
	if lh != rh {
		t.Errorf("black-height mismatch: %d vs %d", lh, rh)
		return -1
	}
	if isRed(n) {
		return lh
	}
	return lh + 1
}

func TestTreeRingNodes(t *testing.T) {
	tr := NewTreeWithNodes(Config{VirtualNodes: 3}, nodeNames(4))
	got := map[NodeID]bool{}
	for _, n := range tr.Nodes() {
		got[n] = true
	}
	if len(got) != 4 {
		t.Errorf("Nodes() returned %d distinct members, want 4", len(got))
	}
}

func BenchmarkRingVsTree(b *testing.B) {
	cfg := Config{VirtualNodes: 100}
	nodes := nodeNames(1024)
	keys := fileKeys(1024)

	b.Run("slice/lookup", func(b *testing.B) {
		r := NewWithNodes(cfg, nodes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Owner(keys[i&1023])
		}
	})
	b.Run("tree/lookup", func(b *testing.B) {
		tr := NewTreeWithNodes(cfg, nodes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Owner(keys[i&1023])
		}
	})
	b.Run("slice/remove+add", func(b *testing.B) {
		r := NewWithNodes(cfg, nodes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := nodes[i%1024]
			r.Remove(n)
			r.Add(n)
		}
	})
	b.Run("tree/remove+add", func(b *testing.B) {
		tr := NewTreeWithNodes(cfg, nodes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := nodes[i%1024]
			tr.Remove(n)
			tr.Add(n)
		}
	})
}
