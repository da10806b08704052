package hashring

import (
	"testing"
)

// ownershipMap resolves every key against the ring.
func ownershipMap(r *Ring, keys []string) map[string]NodeID {
	out := make(map[string]NodeID, len(keys))
	for _, k := range keys {
		if owner, ok := r.Owner(k); ok {
			out[k] = owner
		}
	}
	return out
}

// TestRemoveReAddRestoresOwnership is the rejoin correctness anchor:
// because a node's virtual points are a pure function of (node,
// vnodes), removing a node and re-adding it must restore bit-identical
// ownership for every key — against a ring that never saw the failure.
func TestRemoveReAddRestoresOwnership(t *testing.T) {
	nodes := nodeNames(16)
	keys := fileKeys(5000)
	cfg := Config{VirtualNodes: 100}

	pristine := NewWithNodes(cfg, nodes)
	want := ownershipMap(pristine, keys)

	r := NewWithNodes(cfg, nodes)
	victim := nodes[5]
	r.Remove(victim)
	// While removed, nothing may map to the victim.
	for k, o := range ownershipMap(r, keys) {
		if o == victim {
			t.Fatalf("key %s owned by removed node", k)
		}
	}
	r.Add(victim)

	got := ownershipMap(r, keys)
	if len(got) != len(want) {
		t.Fatalf("ownership size %d != pristine %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %s: owner %s after remove+re-add, pristine says %s", k, got[k], w)
		}
	}
	if r.PointCount() != pristine.PointCount() {
		t.Errorf("point count %d != pristine %d", r.PointCount(), pristine.PointCount())
	}
}

// TestPlanRejoinMatchesActualAdd: the planned warm set must be exactly
// the keys whose ownership flips to the joining node when Add commits.
func TestPlanRejoinMatchesActualAdd(t *testing.T) {
	nodes := nodeNames(12)
	keys := fileKeys(3000)
	r := NewWithNodes(Config{VirtualNodes: 100}, nodes)
	victim := nodes[3]
	r.Remove(victim)

	before := ownershipMap(r, keys)
	plan := r.PlanRejoin(victim, keys)
	if plan.Joining != victim {
		t.Fatalf("plan.Joining = %s", plan.Joining)
	}
	planned := make(map[string]bool, len(plan.Keys))
	for _, k := range plan.Keys {
		planned[k] = true
	}

	r.Add(victim)
	after := ownershipMap(r, keys)
	for _, k := range keys {
		moved := after[k] == victim
		if moved != planned[k] {
			t.Fatalf("key %s: planned=%v but post-add owner is %s (was %s)",
				k, planned[k], after[k], before[k])
		}
		// Minimal movement: keys not moving to the joiner must not move
		// at all.
		if !moved && after[k] != before[k] {
			t.Fatalf("key %s moved %s→%s without involving the joiner", k, before[k], after[k])
		}
	}
	if len(plan.Keys) == 0 {
		t.Error("rejoin plan warmed zero keys — victim reclaimed nothing, which cannot be right at these sizes")
	}
}

// TestPlanRejoinInverseOfRecache: over the same key set, the keys the
// failure plan says the node loses are exactly the keys the rejoin plan
// says it reclaims.
func TestPlanRejoinInverseOfRecache(t *testing.T) {
	nodes := nodeNames(10)
	keys := fileKeys(2000)
	r := NewWithNodes(Config{VirtualNodes: 100}, nodes)
	victim := nodes[7]

	lost := make(map[string]bool)
	for _, ks := range r.PlanRecache(victim, keys).Moves {
		for _, k := range ks {
			lost[k] = true
		}
	}
	r.Remove(victim)
	plan := r.PlanRejoin(victim, keys)
	if len(plan.Keys) != len(lost) {
		t.Fatalf("rejoin reclaims %d keys, recache lost %d", len(plan.Keys), len(lost))
	}
	for _, k := range plan.Keys {
		if !lost[k] {
			t.Fatalf("rejoin reclaims %s which the recache plan never lost", k)
		}
	}
}

func TestPlanRejoinExistingMemberEmpty(t *testing.T) {
	r := NewWithNodes(Config{VirtualNodes: 50}, nodeNames(4))
	plan := r.PlanRejoin("node-0002", fileKeys(100))
	if len(plan.Keys) != 0 {
		t.Errorf("PlanRejoin for a current member returned %d keys, want 0 (double-rejoin must be benign)", len(plan.Keys))
	}
}

func TestPlanRejoinEmptyRing(t *testing.T) {
	r := New(Config{VirtualNodes: 50})
	plan := r.PlanRejoin("node-0000", fileKeys(50))
	// Sole member of an empty ring owns everything once added.
	if len(plan.Keys) != 50 {
		t.Errorf("sole joiner plans %d keys, want all 50", len(plan.Keys))
	}
}
