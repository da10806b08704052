package hvac

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// fullNVMe boots one server whose NVMe holds exactly objects objects of
// size bytes, fills it with residents read reads times each through the
// store (as many demand reads would), and returns the server, its
// cluster and the residents' paths.
func fullNVMe(t *testing.T, cfg ServerConfig, objects, size, reads int) (*testCluster, *Server, []string) {
	t.Helper()
	cfg.Node = "node-00"
	cfg.NVMeCapacity = int64(objects * size)
	tc, srv := oneServerCluster(t, cfg)
	residents := make([]string, objects)
	for i := range residents {
		residents[i] = fmt.Sprintf("hot/f%02d", i)
		if err := srv.NVMe().Put(residents[i], bytes.Repeat([]byte{byte(i)}, size)); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < reads; r++ {
			srv.NVMe().Get(residents[i])
		}
	}
	if s := srv.NVMe().Snapshot(); s.Bytes != s.Capacity {
		t.Fatalf("NVMe holds %d of %d bytes, want full", s.Bytes, s.Capacity)
	}
	return tc, srv, residents
}

// TestFullNVMeRefusesColdMissFill: a demand miss fill enters a full NVMe
// only once it is read more often than its victim, by the admission
// rule's margin; until then each refused fill is served all the same.
func TestFullNVMeRefusesColdMissFill(t *testing.T) {
	tc, srv, _ := fullNVMe(t, ServerConfig{}, 4, 64, 0)
	want := []byte(strings.Repeat("c", 64))
	tc.pfs.Put("cold/f", want)
	c := tc.client(staticRouter{node: "node-00"}, time.Second)
	ctx := context.Background()
	// The residents were never read: the candidate needs a count of
	// three, its third miss, to displace one.
	for read := 1; read <= 4; read++ {
		got, err := c.Read(ctx, "cold/f")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d: %q, %v", read, got, err)
		}
		pfsReads, _, _ := tc.pfs.Counters()
		if admitted := srv.NVMe().Has("cold/f"); admitted != (read >= 3) || pfsReads != int64(min(read, 3)) {
			t.Fatalf("after read %d: admitted=%v, %d PFS reads", read, admitted, pfsReads)
		}
	}
	if refused := srv.NVMe().Snapshot().Refused; refused != 2 {
		t.Errorf("%d miss fills counted refused, want 2", refused)
	}
}

// TestFullNVMeAcksPutReadable: a write is not a miss fill. A Flush-acked
// put is readable from a full NVMe whose residents are all hotter than
// it, and not on the PFS at all.
func TestFullNVMeAcksPutReadable(t *testing.T) {
	tc, srv, residents := fullNVMe(t, ServerConfig{}, 4, 64, 8)
	if stored, _ := srv.NVMe().Offer("probe", make([]byte, 64)); stored {
		t.Fatal("an unread offer displaced a hot resident: the residents are not hotter")
	}
	c := tc.ingestClient(staticRouter{node: "node-00"}, &IngestConfig{}, 1)
	ctx := context.Background()
	want := []byte(strings.Repeat("w", 64))
	if err := c.PutAsync("new/obj", want); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got, err := c.Read(ctx, "new/obj")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after Flush: %q, %v", got, err)
	}
	kept := 0
	for _, p := range residents {
		if srv.NVMe().Has(p) {
			kept++
		}
	}
	if kept != len(residents)-1 {
		t.Errorf("%d of %d residents kept, want all but the put's one victim", kept, len(residents))
	}
}

// TestFullNVMeTakesDemotion: an object the RAM tier evicts lands on NVMe
// even when every NVMe resident is hotter — a demotion is the object's
// last node-local copy, not a candidate.
func TestFullNVMeTakesDemotion(t *testing.T) {
	_, srv, _ := fullNVMe(t, ServerConfig{RAMCapacity: 128}, 4, 64, 8)
	a, b := bytes.Repeat([]byte{'a'}, 128), bytes.Repeat([]byte{'b'}, 128)
	if !srv.RAM().Admit("data/a", a) {
		t.Fatal("an empty RAM tier refused data/a")
	}
	for i := 0; i < 4; i++ {
		if lease, ok := srv.RAM().Get("data/b"); ok {
			lease.Release()
		}
	}
	if !srv.RAM().Admit("data/b", b) {
		t.Fatal("a hotter data/b was refused")
	}
	if srv.RAM().Has("data/a") {
		t.Fatal("data/a was not evicted")
	}
	got, err := srv.NVMe().Get("data/a")
	if err != nil || !bytes.Equal(got, a) {
		t.Fatalf("the demotion did not land on NVMe: %d B, %v", len(got), err)
	}
}

// TestFullNVMeRecacheOnePFSRead: a recache prefetch is not held to the
// admission rule. Lost files hinted onto a full NVMe of hotter residents
// cost one PFS read each, and none more when they are read.
func TestFullNVMeRecacheOnePFSRead(t *testing.T) {
	// Enough residents that every shard's LRU end is one of them, not a
	// lost file recached a moment earlier.
	tc, srv, _ := fullNVMe(t, ServerConfig{}, 256, 64, 8)
	lost := make([]string, 4)
	for i := range lost {
		lost[i] = fmt.Sprintf("lost/f%d", i)
		tc.pfs.Put(lost[i], bytes.Repeat([]byte{byte('0' + i)}, 64))
	}
	srv.Mover().Recache("node-09", lost)
	srv.Mover().Flush()
	c := tc.client(staticRouter{node: "node-00"}, time.Second)
	for _, p := range lost {
		if _, err := c.Read(context.Background(), p); err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
	}
	if reads, _, _ := tc.pfs.Counters(); reads != int64(len(lost)) {
		t.Errorf("%d PFS reads for %d lost files, want one each", reads, len(lost))
	}
}

// TestFullNVMeRecacheDemandFirstOnePFSRead: a demand read of a lost file
// still queued for its recache is that file's one PFS read. Its fill
// stores whatever the admission rule says, and the prefetch then finds
// it resident.
func TestFullNVMeRecacheDemandFirstOnePFSRead(t *testing.T) {
	tc, srv, _ := fullNVMe(t, ServerConfig{}, 256, 64, 8)
	lost := make([]string, 64)
	for i := range lost {
		lost[i] = fmt.Sprintf("lost/f%02d", i)
		tc.pfs.Put(lost[i], bytes.Repeat([]byte{byte(i)}, 64))
	}
	// Each PFS read takes 2 ms, so the recache workers reach the last
	// hinted path long after the demand read below has fetched it.
	tc.pfs.SetReadDelay(2 * time.Millisecond)
	srv.Mover().Recache("node-09", lost)
	c := tc.client(staticRouter{node: "node-00"}, time.Second)
	if _, err := c.Read(context.Background(), lost[len(lost)-1]); err != nil {
		t.Fatal(err)
	}
	srv.Mover().Flush()
	if reads, _, _ := tc.pfs.Counters(); reads != int64(len(lost)) {
		t.Errorf("%d PFS reads for %d lost files, want one each", reads, len(lost))
	}
}

// TestPromotionOrderingsLeaveOneCopy: a promotion moves an object from
// NVMe to RAM (admit, then drop NVMe's copy, then settle), and an
// eviction can race it (the tier drops the object, then its demotion
// hook runs). Whatever the interleaving, the object ends in exactly one
// tier.
func TestPromotionOrderingsLeaveOneCopy(t *testing.T) {
	const path = "data/f"
	data := []byte("promoted-bytes")
	// After the admission (A): every interleaving of the promotion's drop
	// (X) and re-check (C) with the eviction's removal (E) and demotion
	// (D), each pair in its own order.
	for _, order := range []string{"XCED", "XECD", "XEDC", "EXCD", "EXDC", "EDXC"} {
		srv, _, _ := newRAMServer(t, 1<<20)
		srv.NVMe().Put(path, data)
		if !srv.RAM().Admit(path, data) {
			t.Fatal("admit refused by an empty tier")
		}
		for _, step := range order {
			switch step {
			case 'X':
				srv.NVMe().Delete(path)
			case 'C':
				srv.settle(path, data)
			case 'E':
				srv.RAM().Invalidate(path) // what an eviction removes, without its hook
			case 'D':
				srv.demoteRAM(path, data)
			}
		}
		if inRAM, onNVMe := srv.RAM().Has(path), srv.NVMe().Has(path); inRAM == onNVMe {
			t.Errorf("order A%s: RAM=%v NVMe=%v, want exactly one", order, inRAM, onNVMe)
		}
	}
	// And the promotion itself is a move.
	srv, _, _ := newRAMServer(t, 1<<20)
	srv.NVMe().Put(path, data)
	if !srv.promote(path, data) || !srv.RAM().Has(path) || srv.NVMe().Has(path) {
		t.Errorf("promote: RAM=%v NVMe=%v, want RAM only", srv.RAM().Has(path), srv.NVMe().Has(path))
	}
}

// TestResidentInRAMOnly: once a promotion moved an object, the RAM tier
// holds its only copy. Stat must still find it — a pushed object exists
// nowhere else — and a recache hint for it must not fetch it from the
// PFS again.
func TestResidentInRAMOnly(t *testing.T) {
	srv, network, pfs := newRAMServer(t, 1<<20)
	c := ramClient(t, network, pfs)
	ctx := context.Background()
	pushed := []byte("pushed-bytes")
	if err := c.Push(ctx, "node-00", "data/pushed", pushed); err != nil {
		t.Fatalf("push: %v", err)
	}
	pfs.Put("data/lost", []byte("lost-bytes"))
	for _, p := range []string{"data/pushed", "data/lost"} {
		if _, err := c.Read(ctx, p); err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		srv.NVMe().Delete(p) // any NVMe copy, as an eviction would
		if !srv.RAM().Has(p) {
			t.Fatalf("%s was not promoted", p)
		}
	}
	st, err := c.Stat(ctx, "data/pushed")
	if err != nil || !st.Cached || st.Size != int64(len(pushed)) {
		t.Fatalf("stat of a RAM-only object = %+v, %v", st, err)
	}
	before, _, _ := pfs.Counters()
	queued, _ := srv.Mover().Counters()
	srv.Mover().Recache("node-09", []string{"data/lost"})
	srv.Mover().Flush()
	if reads, _, _ := pfs.Counters(); reads != before {
		t.Errorf("a recache hint for a RAM-resident file cost %d PFS reads", reads-before)
	}
	if enq, _ := srv.Mover().Counters(); enq != queued {
		t.Errorf("a recache hint for a RAM-resident file was queued")
	}
	if n, fetched := srv.prefetch("data/lost"); fetched || n != 0 {
		t.Errorf("prefetch of a RAM-resident file fetched %d B", n)
	}
}
