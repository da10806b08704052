package experiments

import (
	"strings"
	"testing"
)

func TestExtReplication(t *testing.T) {
	r := NewSweep(tiny()).ExtReplication()
	if r.Factor != 2 || len(r.Rows) != 2 {
		t.Fatalf("result shape: %+v", r)
	}
	for _, row := range r.Rows {
		if row.RecachePFSReads <= 0 {
			t.Errorf("n=%d: recache should pay post-failure PFS reads, got %d",
				row.Nodes, row.RecachePFSReads)
		}
		if row.ReplicatedPFSReads >= row.RecachePFSReads {
			t.Errorf("n=%d: replication should slash PFS traffic: %d vs %d",
				row.Nodes, row.ReplicatedPFSReads, row.RecachePFSReads)
		}
		if row.Replicated > row.Recache {
			t.Errorf("n=%d: replicated run (%v) slower than recache (%v)",
				row.Nodes, row.Replicated, row.Recache)
		}
		if row.Base >= row.Recache {
			continue // base can equal under rounding; no hard assert
		}
	}
	if !strings.Contains(r.Tabulate().Title, "replication") {
		t.Error("title missing description")
	}
}

func TestExtVnodeSweep(t *testing.T) {
	r := NewSweep(tiny()).ExtVnodeSweep()
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i, row := range r.Rows {
		if row.Total <= 0 {
			t.Errorf("row %d: zero total", i)
		}
		if row.VictimEpoch <= 0 {
			t.Errorf("row %d: zero victim epoch", i)
		}
	}
	if h := r.Tabulate().Header; h[0] != "vnodes" {
		t.Errorf("header %v, want vnodes first", h)
	}
}
