package hvac

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/telemetry"
)

// TestMoverStoresAsync: a demotion is stored by the time Demote returns
// — the pusher's side of it is what is asynchronous — and counted.
func TestMoverStoresAsync(t *testing.T) {
	nvme := storage.NewNVMe(0)
	m := NewMover(nvme, "", nil)
	defer m.Close()
	for i := 0; i < 10; i++ {
		path := fmt.Sprintf("f%d", i)
		if !m.Demote(path, []byte{byte(i)}) {
			t.Fatalf("demote %d dropped", i)
		}
		if !nvme.Has(path) {
			t.Errorf("%s not cached when Demote returned", path)
		}
	}
	enq, drop := m.Counters()
	if enq != 10 || drop != 0 {
		t.Errorf("counters: enq=%d drop=%d", enq, drop)
	}
}

func TestMoverCloseIdempotentAndRejects(t *testing.T) {
	m := NewMover(storage.NewNVMe(0), "", nil)
	m.Close()
	m.Close() // must not panic
	if m.Demote("x", []byte("y")) {
		t.Error("demote after close should report drop")
	}
	_, drops := m.Counters()
	if drops != 1 {
		t.Errorf("drops = %d, want 1", drops)
	}
}

func TestMoverFlushOnEmptyQueue(t *testing.T) {
	m := NewMover(storage.NewNVMe(0), "", nil)
	defer m.Close()
	m.Flush() // must not block
}

func TestMoverConcurrentEnqueue(t *testing.T) {
	nvme := storage.NewNVMe(0)
	m := NewMover(nvme, "", nil)
	defer m.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.Demote(fmt.Sprintf("g%d-f%d", g, i), []byte("d"))
			}
		}(g)
	}
	wg.Wait()
	objs, _ := nvme.Stats()
	enq, drop := m.Counters()
	if objs != 800 || enq != 800 || drop != 0 {
		t.Errorf("8 × 100 concurrent demotions: objs=%d enq=%d drop=%d, want 800, 800, 0", objs, enq, drop)
	}
}

func TestMoverCountsFillErrors(t *testing.T) {
	// Capacity 4: a 10-byte object can never cache, so its fill fails
	// with ErrTooLarge.
	nvme := storage.NewNVMe(4)
	m := NewMover(nvme, "", nil)
	defer m.Close()

	big := []byte("0123456789")
	if !m.Demote("huge.bin", big) {
		t.Fatal("demote of an oversized object reported a drop")
	}
	errs, lastErr := m.FillStats()
	if errs != 1 {
		t.Errorf("fill errors = %d, want 1", errs)
	}
	if lastErr == "" {
		t.Error("lastErr empty after failed fill")
	}
	if nvme.Has("huge.bin") {
		t.Error("oversized object cached despite capacity")
	}

	// A small object still fills fine and does not disturb the error
	// record.
	if !m.Demote("ok.bin", []byte("ab")) {
		t.Fatal("small demote dropped")
	}
	if !nvme.Has("ok.bin") {
		t.Error("small object not cached")
	}
	if errs, _ := m.FillStats(); errs != 1 {
		t.Errorf("fill errors after success = %d, want still 1", errs)
	}
}

// TestIdleServerRunsNoMoverGoroutine: a server built but never served
// runs no mover goroutine — its fills are synchronous and its recache
// workers start with the first hint.
func TestIdleServerRunsNoMoverGoroutine(t *testing.T) {
	before := moverGoroutines()
	srv := NewServer(ServerConfig{Node: "idle", RAMCapacity: 1 << 10}, storage.NewPFS())
	if n := moverGoroutines(); n > before {
		t.Errorf("NewServer started %d mover goroutine(s)", n-before)
	}
	srv.Close()
}

// moverGoroutines counts the goroutines running a Mover method.
func moverGoroutines() int {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "hvac.(*Mover).") {
			count++
		}
	}
	return count
}

// TestMoverTracesOnlyMissFills: recache-file-done is the miss flight's
// event. Puts and RAM demotions store through the mover without one,
// so a node-declared-dead stays in the bounded event trace through
// 2,000 puts, and the one miss fill that follows is traced.
func TestMoverTracesOnlyMissFills(t *testing.T) {
	tc := newTestCluster(t, 2)
	tc.pfs.Put("missed", []byte("m"))
	c := tc.ingestClient(staticRouter{node: "node-00"}, nil, 0)
	srv := tc.servers["node-00"]
	trace := telemetry.Default().Trace()
	var seq uint64 // the last event before this test's
	if last := trace.Recent(1); len(last) > 0 {
		seq = last[0].Seq
	}
	declare(c.Tracker(), "node-01")
	for i := 0; i < 2000; i++ {
		if err := c.PutAsync(fmt.Sprintf("put/%04d", i), []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.Mover().Demote("demoted", []byte("d"))
	if _, err := c.Read(context.Background(), "missed"); err != nil {
		t.Fatal(err)
	}
	declared := false
	var fills []string
	for _, e := range trace.Recent(0) {
		if e.Seq <= seq {
			continue
		}
		declared = declared || e.Type == telemetry.EventNodeDead && e.Node == "node-01"
		if e.Type == telemetry.EventRecacheFileDone && e.Node == "node-00" {
			fills = append(fills, e.Detail)
		}
	}
	if !declared {
		t.Error("node-declared-dead fell out of the trace")
	}
	if len(fills) != 1 || fills[0] != "missed" {
		t.Errorf("recache-file-done for %d paths, first %q; want only the miss fill",
			len(fills), fills[:min(len(fills), 3)])
	}
}
