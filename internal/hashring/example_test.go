package hashring_test

import (
	"fmt"
	"testing"

	"repro/internal/hashring"
	"repro/internal/partition"
	"repro/internal/stats"
)

// The core FT-Cache flow: place files on a ring, lose a node, observe
// that only the lost node's files move — each to the clockwise
// successor that will recache it.
func Example() {
	ring := hashring.NewWithNodes(
		hashring.Config{VirtualNodes: 100},
		[]hashring.NodeID{"node-0", "node-1", "node-2", "node-3"},
	)

	files := make([]string, 400)
	for i := range files {
		files[i] = fmt.Sprintf("cosmo/univ_%07d.tfrecord", i)
	}
	before := make(map[string]hashring.NodeID, len(files))
	for _, f := range files {
		before[f], _ = ring.Owner(f)
	}

	plan := ring.PlanRecache("node-1", files)
	ring.Remove("node-1")

	moved, stable := 0, true
	for _, f := range files {
		after, _ := ring.Owner(f)
		if before[f] == "node-1" {
			moved++
		} else if after != before[f] {
			stable = false
		}
	}
	fmt.Printf("lost files match the recache plan: %v\n", moved == plan.Lost)
	fmt.Printf("surviving placements untouched:   %v\n", stable)
	fmt.Printf("receivers share the burst:        %v\n", plan.Receivers() > 1)
	// Output:
	// lost files match the recache plan: true
	// surviving placements untouched:   true
	// receivers share the burst:        true
}

// Virtual nodes balance the key population: with 100 points per node
// every member owns close to 1/N of the files.
func Example_balance() {
	nodes := make([]hashring.NodeID, 16)
	for i := range nodes {
		nodes[i] = hashring.NodeID(fmt.Sprintf("n%02d", i))
	}
	ring := hashring.NewWithNodes(hashring.Config{VirtualNodes: 100}, nodes)
	counts := partition.LoadCounts(ring, fileKeys(16000))
	fmt.Printf("members: %d\n", len(counts))
	fmt.Printf("well balanced: %v\n", keyCountCV(counts, nodes) < 0.25)
	// Output:
	// members: 16
	// well balanced: true
}

// TestBalanceImprovesWithVirtualNodes: more points per node spread the
// key population more evenly over the members.
func TestBalanceImprovesWithVirtualNodes(t *testing.T) {
	nodes := make([]hashring.NodeID, 32)
	for i := range nodes {
		nodes[i] = hashring.NodeID(fmt.Sprintf("node-%04d", i))
	}
	keys := fileKeys(32000)
	cvAt := func(v int) float64 {
		ring := hashring.NewWithNodes(hashring.Config{VirtualNodes: v}, nodes)
		return keyCountCV(partition.LoadCounts(ring, keys), nodes)
	}
	low, high := cvAt(1), cvAt(200)
	if high >= low {
		t.Errorf("CV with 200 vnodes (%.3f) should beat CV with 1 vnode (%.3f)", high, low)
	}
	if high > 0.25 {
		t.Errorf("CV with 200 vnodes too high: %.3f", high)
	}
}

// keyCountCV is the coefficient of variation of the per-member key
// counts, members that own no key included.
func keyCountCV(counts map[hashring.NodeID]int, members []hashring.NodeID) float64 {
	vals := make([]float64, len(members))
	for i, n := range members {
		vals[i] = float64(counts[n])
	}
	return stats.StdDev(vals) / stats.Mean(vals)
}

func fileKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("cosmoUniverse/train/univ_%06d.tfrecord", i)
	}
	return out
}
