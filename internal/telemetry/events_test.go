package telemetry

import "testing"

// TestEventTraceOrderAndSince reads the events emitted since a mark,
// the Seq of the last event before them, in emission order.
func TestEventTraceOrderAndSince(t *testing.T) {
	tr := NewEventTrace(8)
	tr.Emit(EventPFSFallback, "n1", "", 0)
	base := tr.Recent(1)[0].Seq
	tr.Emit(EventNodeSuspected, "n0", "", 0)
	tr.Emit(EventNodeDead, "n0", "", 42)
	tr.Emit(EventRecachePlanned, "n0", "", 10)
	var got []Event
	for _, e := range tr.Recent(0) {
		if e.Seq > base {
			got = append(got, e)
		}
	}
	if len(got) != 3 {
		t.Fatalf("%d events since the mark, want 3", len(got))
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
	// Recent(0) is everything retained; a smaller max keeps the newest.
	if got := tr.Recent(0); len(got) != 4 || got[0].Seq != 7 {
		t.Fatalf("Recent(0) = %+v, want the 4 events from seq 7", got)
	}
	if got := tr.Recent(1); len(got) != 1 || got[0].Seq != 10 {
		t.Fatalf("Recent(1) = %+v, want the event of seq 10", got)
	}
	if got := NewEventTrace(4).Recent(1); len(got) != 0 {
		t.Fatalf("Recent(1) of an empty trace returned %d events", len(got))
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
