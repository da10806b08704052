package telemetry

import "testing"

func TestEventTraceOrderAndSince(t *testing.T) {
	tr := NewEventTrace(8)
	base := tr.Seq()
	tr.Emit(EventNodeSuspected, "n0", "", 0)
	tr.Emit(EventNodeDead, "n0", "", 42)
	tr.Emit(EventRecachePlanned, "n0", "", 10)
	got := tr.Since(base)
	if len(got) != 3 {
		t.Fatalf("Since returned %d events, want 3", len(got))
	}
	wantTypes := []EventType{EventNodeSuspected, EventNodeDead, EventRecachePlanned}
	for i, e := range got {
		if e.Type != wantTypes[i] {
			t.Fatalf("event %d type = %s, want %s", i, e.Type, wantTypes[i])
		}
		if e.Seq != base+uint64(i)+1 {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, base+uint64(i)+1)
		}
	}
	if got[1].Value != 42 {
		t.Fatalf("dead event value = %d, want 42", got[1].Value)
	}
}

func TestEventTraceBounded(t *testing.T) {
	tr := NewEventTrace(4)
	for i := 0; i < 10; i++ {
		tr.Emit(EventPFSFallback, "n", "", int64(i))
	}
	got := tr.Recent(100)
	if len(got) != 4 {
		t.Fatalf("retained %d events, want 4", len(got))
	}
	for i, e := range got {
		if e.Value != int64(6+i) {
			t.Fatalf("retained event %d value = %d, want %d", i, e.Value, 6+i)
		}
	}
	// Since a sequence point that was overwritten returns only what is
	// still retained.
	if got := tr.Since(1); len(got) != 4 {
		t.Fatalf("Since(1) returned %d events, want 4", len(got))
	}
	// Since the current head returns nothing.
	if got := tr.Since(tr.Seq()); len(got) != 0 {
		t.Fatalf("Since(head) returned %d events, want 0", len(got))
	}
}

func TestEventTypeStrings(t *testing.T) {
	for typ, want := range map[EventType]string{
		EventNodeSuspected:   "node-suspected",
		EventNodeDead:        "node-declared-dead",
		EventRingChange:      "ring-membership-change",
		EventRecachePlanned:  "recache-planned",
		EventRecacheFileDone: "recache-file-done",
		EventPFSFallback:     "pfs-fallback",
		EventNodeRevived:     "node-revived",
		EventNodeRejoined:    "node-rejoined",
		EventRecacheComplete: "recache-complete",
	} {
		if typ.String() != want {
			t.Errorf("EventType %d = %q, want %q", typ, typ.String(), want)
		}
	}
}
