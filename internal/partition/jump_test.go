package partition

import (
	"testing"

	"repro/internal/hashring"
)

func TestJumpHashReference(t *testing.T) {
	// Structural properties of the algorithm itself.
	for _, buckets := range []int{1, 2, 10, 1000} {
		for key := uint64(0); key < 200; key++ {
			b := jumpHash(key, buckets)
			if b < 0 || b >= buckets {
				t.Fatalf("jumpHash(%d,%d) = %d out of range", key, buckets, b)
			}
		}
	}
	// Single bucket: everything maps to 0.
	for key := uint64(0); key < 50; key++ {
		if jumpHash(key, 1) != 0 {
			t.Fatal("single bucket must absorb all keys")
		}
	}
}

func TestJumpHashMinimalMovementOnGrowth(t *testing.T) {
	// The defining jump-hash property: growing n → n+1 moves ≈ 1/(n+1)
	// of keys, and keys only move TO the new bucket.
	const n, keys = 16, 20000
	moved := 0
	for k := uint64(0); k < keys; k++ {
		before := jumpHash(k, n)
		after := jumpHash(k, n+1)
		if before != after {
			moved++
			if after != n {
				t.Fatalf("key %d moved to old bucket %d", k, after)
			}
		}
	}
	frac := float64(moved) / keys
	want := 1.0 / float64(n+1)
	if frac < want*0.7 || frac > want*1.3 {
		t.Errorf("moved fraction = %.4f, want ≈ %.4f", frac, want)
	}
}

// TestJumpArbitraryRemovalMovesManyKeys documents why FT-Cache uses a
// ring instead of jump hash: failing a middle node renumbers buckets and
// relocates keys that were on healthy nodes.
func TestJumpArbitraryRemovalMovesManyKeys(t *testing.T) {
	p := NewJump(nodes(16))
	ks := keys(4000)
	rep := MeasureFailure(p, ks, p.Nodes()[2]) // early-index victim
	if rep.Collateral == 0 {
		t.Error("jump hash should show collateral movement on middle-node failure")
	}
	// Ring comparison: zero collateral by construction.
	ring := hashring.NewWithNodes(hashring.Config{VirtualNodes: 100}, nodes(16))
	rrep := MeasureFailure(ring, ks, ring.Nodes()[2])
	if rrep.Collateral != 0 {
		t.Errorf("ring collateral = %d", rrep.Collateral)
	}
	if rep.Moved() <= rrep.Moved() {
		t.Errorf("jump should move more keys than ring: %d vs %d", rep.Moved(), rrep.Moved())
	}
}
