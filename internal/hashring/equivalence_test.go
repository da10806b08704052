package hashring

import (
	"fmt"
	"math/rand"
	"testing"
)

// naiveOwner is an O(P) reference resolver: scan the sorted point slice
// for the first point at or clockwise-after h, wrapping to the lowest
// point. Used to pin the binary-search implementations to the spec.
func naiveOwner(pts []point, h uint64) (NodeID, bool) {
	if len(pts) == 0 {
		return "", false
	}
	for _, p := range pts {
		if p.hash >= h {
			return p.node, true
		}
	}
	return pts[0].node, true
}

// TestOwnershipEquivalenceUnderChurn drives Ring and TreeRing through
// the same membership churn and asserts, at every step, that 10k random
// keys resolve to the same owner on both — and that Ring agrees with a
// naive linear scan of its own point set. This pins the copy-on-write
// ring's hand-rolled binary search (and its snapshot swaps) bit-for-bit
// to the reference semantics the rest of the system assumes.
func TestOwnershipEquivalenceUnderChurn(t *testing.T) {
	const numKeys = 10000
	cfg := Config{VirtualNodes: 50}
	ring := New(cfg)
	tree := NewTree(cfg)

	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("cosmoUniverse/train/univ_%06d.tfrecord", i)
	}

	check := func(step string) {
		t.Helper()
		pts := ring.snap.Load().points
		mismatch := 0
		for _, k := range keys {
			ro, rok := ring.Owner(k)
			to, tok := tree.Owner(k)
			if ro != to || rok != tok {
				mismatch++
				if mismatch <= 3 {
					t.Errorf("%s: key %q: Ring=%q(%v) TreeRing=%q(%v)",
						step, k, ro, rok, to, tok)
				}
			}
			no, nok := naiveOwner(pts, ring.KeyHash(k))
			if ro != no || rok != nok {
				t.Fatalf("%s: key %q: Ring=%q(%v) naive=%q(%v)",
					step, k, ro, rok, no, nok)
			}
		}
		if mismatch > 0 {
			t.Fatalf("%s: %d/%d keys disagree between Ring and TreeRing",
				step, mismatch, numKeys)
		}
	}

	// Grow to 24 nodes, checking at a few sizes including 1 and 2.
	for i := 0; i < 24; i++ {
		n := NodeID(fmt.Sprintf("node-%04d", i))
		ring.Add(n)
		tree.Add(n)
		if i < 2 || i == 7 || i == 23 {
			check(fmt.Sprintf("after add %d", i))
		}
	}

	// Random churn: interleaved removes and re-adds.
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 12; step++ {
		members := ring.Nodes()
		if len(members) > 4 && rng.Intn(2) == 0 {
			victim := members[rng.Intn(len(members))]
			ring.Remove(victim)
			tree.Remove(victim)
		} else {
			n := NodeID(fmt.Sprintf("node-%04d", rng.Intn(32)))
			ring.Add(n)
			tree.Add(n)
		}
		check(fmt.Sprintf("churn step %d", step))
	}

	// Drain to empty; both must agree the whole way down.
	for _, n := range ring.Nodes() {
		ring.Remove(n)
		tree.Remove(n)
	}
	check("after drain")
}

// TestCloneSnapshotIsolation verifies the O(1) clone: the clone answers
// from the shared snapshot until either side changes membership, and a
// change on one side never leaks to the other.
func TestCloneSnapshotIsolation(t *testing.T) {
	r := NewWithNodes(Config{VirtualNodes: 20}, []NodeID{"a", "b", "c"})
	c := r.Clone()
	r.Remove("b")
	if !c.Contains("b") {
		t.Error("clone lost a member after original's Remove")
	}
	c.Remove("c")
	if !r.Contains("c") {
		t.Error("original lost a member after clone's Remove")
	}
	if got := r.Nodes(); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("original nodes = %v, want [a c]", got)
	}
	if got := c.Nodes(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("clone nodes = %v, want [a b]", got)
	}
}

// TestPlanRecacheMatchesCloneRemove cross-checks the one-pass
// PlanRecache against the semantically obvious implementation (clone,
// remove, re-resolve every key).
func TestPlanRecacheMatchesCloneRemove(t *testing.T) {
	r := NewWithNodes(Config{VirtualNodes: 50}, nil)
	for i := 0; i < 16; i++ {
		r.Add(NodeID(fmt.Sprintf("node-%04d", i)))
	}
	keys := make([]string, 5000)
	for i := range keys {
		keys[i] = fmt.Sprintf("chaos/f%05d", i)
	}
	failed := NodeID("node-0003")
	plan := r.PlanRecache(failed, keys)

	after := r.Clone()
	after.Remove(failed)
	wantMoves := map[NodeID][]string{}
	wantLost := 0
	for _, k := range keys {
		owner, _ := r.Owner(k)
		if owner != failed {
			continue
		}
		newOwner, _ := after.Owner(k)
		wantMoves[newOwner] = append(wantMoves[newOwner], k)
		wantLost++
	}
	if plan.Lost != wantLost {
		t.Fatalf("Lost = %d, want %d", plan.Lost, wantLost)
	}
	if len(plan.Moves) != len(wantMoves) {
		t.Fatalf("receivers = %d, want %d", len(plan.Moves), len(wantMoves))
	}
	for n, ks := range wantMoves {
		got := plan.Moves[n]
		if len(got) != len(ks) {
			t.Fatalf("receiver %s inherits %d keys, want %d", n, len(got), len(ks))
		}
		for i := range ks {
			if got[i] != ks[i] {
				t.Fatalf("receiver %s key %d = %q, want %q", n, i, got[i], ks[i])
			}
		}
	}
}
