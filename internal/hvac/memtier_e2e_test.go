package hvac

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// newRAMServer boots one server with the RAM tier enabled.
func newRAMServer(t *testing.T, ramCapacity int64) (*Server, *rpc.InprocNetwork, *storage.PFS) {
	t.Helper()
	network := rpc.NewInprocNetwork()
	pfs := storage.NewPFS()
	srv := NewServer(ServerConfig{
		Node:        "node-00",
		RAMCapacity: ramCapacity,
	}, pfs)
	lis, err := network.Listen("node-00")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	return srv, network, pfs
}

func ramClient(t *testing.T, network *rpc.InprocNetwork, pfs *storage.PFS) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{
		Endpoints:    map[cluster.NodeID]string{"node-00": "node-00"},
		Network:      network,
		Router:       staticRouter{node: "node-00"},
		PFS:          pfs,
		RPCTimeout:   time.Second,
		TimeoutLimit: 2,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// heat reads path until the server promotes it into RAM: the first
// device-served read does while the tier has room; into a full tier it
// takes as many reads as make path clearly hotter than the victim.
func heat(t *testing.T, c *Client, srv *Server, path string) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		if _, err := c.Read(ctx, path); err != nil {
			t.Fatalf("heat read %d: %v", i, err)
		}
		if srv.RAM().Has(path) {
			return
		}
	}
	t.Fatalf("%s never promoted into RAM after 64 hot reads", path)
}

func TestRAMTierPromoteAndServe(t *testing.T) {
	srv, network, pfs := newRAMServer(t, 1<<20)
	payload := bytes.Repeat([]byte("ram-tier-payload."), 64)
	pfs.Put("data/hot", payload)
	c := ramClient(t, network, pfs)
	ctx := context.Background()

	// The first device-served read promotes while the tier has room; the
	// second is already a RAM hit.
	if _, err := c.Read(ctx, "data/hot"); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if !srv.RAM().Has("data/hot") {
		t.Fatal("first device-served read did not promote into a tier with room")
	}
	before := c.Stats().ServedRAM
	got, err := c.Read(ctx, "data/hot")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("RAM read: %v (len %d, want %d)", err, len(got), len(payload))
	}
	st := c.Stats()
	if st.ServedRAM != before+1 {
		t.Fatalf("ServedRAM=%d, want %d: %+v", st.ServedRAM, before+1, st)
	}
	if srv.RAMServed() == 0 {
		t.Fatal("server never counted a RAM-served read")
	}
	// The zero-copy response must leave no lease behind once delivered.
	deadline := time.Now().Add(2 * time.Second)
	for srv.RAM().ActiveLeases() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("leaked leases: %d", srv.RAM().ActiveLeases())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandleFlattensReadResponses: a read answers head + by-reference
// body from every tier, and the copying dispatch path must hand direct
// callers exactly the bytes ReadResp.Marshal would have produced —
// whether or not the response carries a lease to release.
func TestHandleFlattensReadResponses(t *testing.T) {
	srv, _, pfs := newRAMServer(t, 1<<20)
	payload := []byte("0123456789abcdef")
	pfs.Put("data/f", payload)
	whole := (&ReadReq{Path: "data/f", Length: -1}).Marshal()
	ranged := (&ReadReq{Path: "data/f", Offset: 4, Length: 8}).Marshal()
	for _, tc := range []struct {
		name    string
		dropRAM bool // invalidate the RAM copy first, so NVMe answers
		req     []byte
		source  uint8
		data    []byte
	}{
		{"pfs", false, whole, SourcePFS, payload}, // cold: the miss flight fills NVMe and the tier
		{"ram", false, whole, SourceRAM, payload},
		{"ram range", false, ranged, SourceRAM, payload[4:12]},
		{"nvme", true, whole, SourceNVMe, payload},
		{"nvme range", true, ranged, SourceNVMe, payload[4:12]}, // the NVMe read above promoted it again
	} {
		if tc.dropRAM {
			srv.RAM().Invalidate("data/f")
		}
		status, got := srv.Handle(OpRead, tc.req)
		want := (&ReadResp{Source: tc.source, FileSize: int64(len(payload)), Data: tc.data}).Marshal()
		if status != rpc.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: status=%d payload=%x, want %x", tc.name, status, got, want)
		}
	}
	if n := srv.RAM().ActiveLeases(); n != 0 {
		t.Errorf("Handle left %d leases behind", n)
	}
}

func TestRAMTierRangeRead(t *testing.T) {
	srv, network, pfs := newRAMServer(t, 1<<20)
	payload := []byte("0123456789abcdef")
	pfs.Put("data/hot", payload)
	c := ramClient(t, network, pfs)
	heat(t, c, srv, "data/hot")

	got, err := c.ReadRange(context.Background(), "data/hot", 4, 8)
	if err != nil || string(got) != "456789ab" {
		t.Fatalf("range read from RAM: %q, %v", got, err)
	}
}

func TestRAMTierInvalidation(t *testing.T) {
	srv, network, pfs := newRAMServer(t, 1<<20)
	pfs.Put("data/hot", []byte("version-1"))
	c := ramClient(t, network, pfs)
	ctx := context.Background()
	heat(t, c, srv, "data/hot")

	// OpInvalidate must clear both tiers: a new version on the PFS has
	// to reach subsequent readers, never the stale RAM copy.
	pfs.Put("data/hot", []byte("version-2"))
	conn, _ := network.Dial("node-00")
	rcli := rpc.NewClient(conn)
	defer rcli.Close()
	req := StatReq{Path: "data/hot"}
	if _, status, err := rcli.Call(ctx, OpInvalidate, req.Marshal()); err != nil || status != rpc.StatusOK {
		t.Fatalf("invalidate: status=%d err=%v", status, err)
	}
	if srv.RAM().Has("data/hot") {
		t.Fatal("RAM still holds the invalidated object")
	}
	got, err := c.Read(ctx, "data/hot")
	if err != nil || string(got) != "version-2" {
		t.Fatalf("post-invalidate read: %q, %v", got, err)
	}
}

func TestRAMTierPutInvalidatesStaleCopy(t *testing.T) {
	srv, network, pfs := newRAMServer(t, 1<<20)
	pfs.Put("data/hot", []byte("old-bytes"))
	c := ramClient(t, network, pfs)
	heat(t, c, srv, "data/hot")

	// Simulate NVMe losing the object while RAM keeps it (promotion
	// never removes from NVMe, but NVMe evicts independently) — then a
	// put with new bytes must displace the stale RAM copy.
	srv.NVMe().Delete("data/hot")
	if err := c.Push(context.Background(), "node-00", "data/hot", []byte("new-bytes")); err != nil {
		t.Fatalf("push: %v", err)
	}
	if srv.RAM().Has("data/hot") {
		t.Fatal("stale RAM copy survived a put of new bytes")
	}
	got, err := c.Read(context.Background(), "data/hot")
	if err != nil || string(got) != "new-bytes" {
		t.Fatalf("post-put read: %q, %v", got, err)
	}
}

func TestRAMTierDemotionRefillsNVMe(t *testing.T) {
	// Tiny RAM budget: heating a second object evicts the first, and
	// the demotion callback must land the victim's bytes on NVMe if
	// they are not already there.
	srv, network, pfs := newRAMServer(t, 64)
	a := []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa") // 40 bytes
	b := []byte("bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb")
	pfs.Put("data/a", a)
	pfs.Put("data/b", b)
	c := ramClient(t, network, pfs)
	heat(t, c, srv, "data/a")

	// Drop the NVMe copy so the demotion has observable work to do.
	srv.NVMe().Delete("data/a")
	heat(t, c, srv, "data/b") // evicts data/a (40+40 > 64)
	if srv.RAM().Has("data/a") {
		t.Fatal("data/a should have been evicted by data/b")
	}
	srv.Mover().Flush()
	if !srv.NVMe().Has("data/a") {
		t.Fatal("evicted object was not demoted back to NVMe")
	}
}

func TestRAMTierConcurrentHotReads(t *testing.T) {
	srv, network, pfs := newRAMServer(t, 1<<20)
	const files = 4
	payloads := make(map[string][]byte, files)
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("data/f%d", i)
		payloads[path] = bytes.Repeat([]byte{byte('A' + i)}, 2048)
		pfs.Put(path, payloads[path])
	}
	c := ramClient(t, network, pfs)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 200; i++ {
				path := fmt.Sprintf("data/f%d", i%files)
				got, err := c.Read(ctx, path)
				if err != nil {
					t.Errorf("read %s: %v", path, err)
					return
				}
				if !bytes.Equal(got, payloads[path]) {
					t.Errorf("read %s: wrong bytes (len %d)", path, len(got))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if srv.RAMServed() == 0 {
		t.Fatal("no reads were served from RAM under a hot concurrent workload")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.RAM().ActiveLeases() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("leaked leases after concurrent reads: %d", srv.RAM().ActiveLeases())
		}
		time.Sleep(time.Millisecond)
	}
}
