package hvac

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/loadctl"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// noPlans gives a test router the Router answers of a policy with
// nothing to say beyond Route and NodeFailed.
type noPlans struct{}

func (noPlans) NodeRecovered(cluster.NodeID)                 {}
func (noPlans) Replicas(string, int) []cluster.NodeID        { return nil }
func (noPlans) PlanRejoin(cluster.NodeID, []string) []string { return nil }
func (noPlans) PlanRecache(cluster.NodeID, []string) map[cluster.NodeID][]string {
	return nil
}

// staticRouter always routes to one node — a minimal Router for tests
// that exercise the client/server path without fault-tolerance policy.
type staticRouter struct {
	noPlans
	node cluster.NodeID
}

func (s staticRouter) Name() string              { return "static" }
func (s staticRouter) Route(string) Decision     { return Decision{Kind: RouteNode, Node: s.node} }
func (s staticRouter) NodeFailed(cluster.NodeID) {}

// testCluster spins up n servers over an in-process network plus a PFS
// preloaded with files, and returns a client factory.
type testCluster struct {
	t       *testing.T
	network *rpc.InprocNetwork
	pfs     *storage.PFS
	servers map[cluster.NodeID]*Server
	nodes   []cluster.NodeID
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:       t,
		network: rpc.NewInprocNetwork(),
		pfs:     storage.NewPFS(),
		servers: make(map[cluster.NodeID]*Server),
	}
	for i := 0; i < n; i++ {
		node := cluster.NodeID(fmt.Sprintf("node-%02d", i))
		tc.nodes = append(tc.nodes, node)
		srv := NewServer(ServerConfig{Node: node}, tc.pfs)
		lis, err := tc.network.Listen(string(node))
		if err != nil {
			t.Fatalf("listen %s: %v", node, err)
		}
		go srv.Serve(lis)
		tc.servers[node] = srv
	}
	t.Cleanup(func() {
		for _, s := range tc.servers {
			s.Close()
		}
	})
	return tc
}

func (tc *testCluster) endpoints() map[cluster.NodeID]string {
	eps := make(map[cluster.NodeID]string, len(tc.nodes))
	for _, n := range tc.nodes {
		eps[n] = string(n)
	}
	return eps
}

func (tc *testCluster) client(router Router, timeout time.Duration) *Client {
	tc.t.Helper()
	c, err := NewClient(ClientConfig{
		Endpoints:    tc.endpoints(),
		Network:      tc.network,
		Router:       router,
		PFS:          tc.pfs,
		RPCTimeout:   timeout,
		TimeoutLimit: 2,
	})
	if err != nil {
		tc.t.Fatalf("NewClient: %v", err)
	}
	tc.t.Cleanup(c.Close)
	return c
}

func TestReadMissThenHit(t *testing.T) {
	tc := newTestCluster(t, 1)
	tc.pfs.Put("data/f1", []byte("payload-1"))
	c := tc.client(staticRouter{node: "node-00"}, time.Second)
	ctx := context.Background()

	// First read: PFS fallback on the server.
	got, err := c.Read(ctx, "data/f1")
	if err != nil || string(got) != "payload-1" {
		t.Fatalf("read 1: %q, %v", got, err)
	}
	st := c.Stats()
	if st.ServedPFS != 1 || st.ServedNVMe != 0 {
		t.Fatalf("first read should be a PFS fallback: %+v", st)
	}

	// After the mover runs, the second read is an NVMe hit.
	tc.servers["node-00"].Mover().Flush()
	got, err = c.Read(ctx, "data/f1")
	if err != nil || string(got) != "payload-1" {
		t.Fatalf("read 2: %q, %v", got, err)
	}
	st = c.Stats()
	if st.ServedNVMe != 1 {
		t.Fatalf("second read should hit NVMe: %+v", st)
	}
}

func TestReadRange(t *testing.T) {
	tc := newTestCluster(t, 1)
	tc.pfs.Put("f", []byte("0123456789"))
	c := tc.client(staticRouter{node: "node-00"}, time.Second)
	ctx := context.Background()

	cases := []struct {
		off, n int64
		want   string
	}{
		{0, -1, "0123456789"},
		{3, 4, "3456"},
		{8, 100, "89"}, // clipped at EOF
		{10, -1, ""},
	}
	for _, cse := range cases {
		got, err := c.ReadRange(ctx, "f", cse.off, cse.n)
		if err != nil || string(got) != cse.want {
			t.Errorf("ReadRange(%d,%d) = %q, %v; want %q", cse.off, cse.n, got, err, cse.want)
		}
	}
	if _, err := c.ReadRange(ctx, "f", -1, 2); err == nil {
		t.Error("negative offset should fail")
	}
	if _, err := c.ReadRange(ctx, "f", 11, 2); err == nil {
		t.Error("offset past EOF should fail")
	}
}

func TestReadNotFound(t *testing.T) {
	tc := newTestCluster(t, 1)
	c := tc.client(staticRouter{node: "node-00"}, time.Second)
	if _, err := c.Read(context.Background(), "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestStat(t *testing.T) {
	tc := newTestCluster(t, 1)
	tc.pfs.Put("f", []byte("12345"))
	c := tc.client(staticRouter{node: "node-00"}, time.Second)
	ctx := context.Background()

	st, err := c.Stat(ctx, "f")
	if err != nil || st.Size != 5 || st.Cached {
		t.Fatalf("stat uncached = %+v, %v", st, err)
	}
	c.Read(ctx, "f")
	tc.servers["node-00"].Mover().Flush()
	st, err = c.Stat(ctx, "f")
	if err != nil || !st.Cached {
		t.Fatalf("stat cached = %+v, %v", st, err)
	}
	if _, err := c.Stat(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("stat missing err = %v", err)
	}
}

func TestServerStatsAndPing(t *testing.T) {
	tc := newTestCluster(t, 1)
	tc.pfs.Put("f", []byte("abc"))
	c := tc.client(staticRouter{node: "node-00"}, time.Second)
	ctx := context.Background()

	if err := c.Ping(ctx, "node-00"); err != nil {
		t.Fatalf("ping: %v", err)
	}
	c.Read(ctx, "f")
	tc.servers["node-00"].Mover().Flush()
	c.Read(ctx, "f")
	st, err := c.ServerStats(ctx, "node-00")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.NVMeObjects != 1 || st.PFSFallbacks != 1 || st.NVMeHits != 1 {
		t.Errorf("server stats = %+v", st)
	}
}

func TestInvalidate(t *testing.T) {
	tc := newTestCluster(t, 1)
	srv := tc.servers["node-00"]
	srv.NVMe().Put("f", []byte("cached"))
	c := tc.client(staticRouter{node: "node-00"}, time.Second)

	// Direct RPC for invalidate (no client helper needed in production).
	conn, _ := tc.network.Dial("node-00")
	rcli := rpc.NewClient(conn)
	defer rcli.Close()
	req := StatReq{Path: "f"}
	_, status, err := rcli.Call(context.Background(), OpInvalidate, req.Marshal())
	if err != nil || status != rpc.StatusOK {
		t.Fatalf("invalidate: status=%d err=%v", status, err)
	}
	if srv.NVMe().Has("f") {
		t.Error("file still cached after invalidate")
	}
	_ = c
}

func TestTimeoutEvidenceAndRouterNotification(t *testing.T) {
	tc := newTestCluster(t, 2)
	tc.pfs.Put("f", []byte("x"))

	var failedMu sync.Mutex
	var failed []cluster.NodeID
	router := &notifyRouter{
		target: "node-00",
		onFail: func(n cluster.NodeID) {
			failedMu.Lock()
			failed = append(failed, n)
			failedMu.Unlock()
		},
	}
	c := tc.client(router, 50*time.Millisecond)
	tc.servers["node-00"].SetUnresponsive(true)

	_, err := c.Read(context.Background(), "f")
	// TimeoutLimit=2: after 2 timeouts the node is declared and the
	// router switches to node-01.
	if err != nil {
		t.Fatalf("read should succeed via failover: %v", err)
	}
	failedMu.Lock()
	defer failedMu.Unlock()
	if len(failed) != 1 || failed[0] != "node-00" {
		t.Errorf("router notified with %v, want [node-00]", failed)
	}
	st := c.Stats()
	if st.Timeouts < 2 {
		t.Errorf("timeouts = %d, want >= 2", st.Timeouts)
	}
	if st.FailoverReads != 1 {
		t.Errorf("failoverReads = %d, want 1", st.FailoverReads)
	}
}

// notifyRouter routes to target until told it failed, then to node-01.
type notifyRouter struct {
	noPlans
	mu     sync.Mutex
	target cluster.NodeID
	onFail func(cluster.NodeID)
}

func (r *notifyRouter) Name() string { return "notify" }
func (r *notifyRouter) Route(string) Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Decision{Kind: RouteNode, Node: r.target}
}
func (r *notifyRouter) NodeFailed(n cluster.NodeID) {
	r.mu.Lock()
	r.target = "node-01"
	r.mu.Unlock()
	r.onFail(n)
}

func TestServerKilledConnectionFailure(t *testing.T) {
	tc := newTestCluster(t, 2)
	tc.pfs.Put("f", []byte("x"))
	router := &notifyRouter{target: "node-00", onFail: func(cluster.NodeID) {}}
	c := tc.client(router, 200*time.Millisecond)
	ctx := context.Background()

	// Healthy read first so a connection exists.
	if _, err := c.Read(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	tc.servers["node-00"].Close() // hard kill: conns drop
	// Reads keep working via failover to node-01.
	if _, err := c.Read(ctx, "f"); err != nil {
		t.Fatalf("read after kill: %v", err)
	}
}

func TestReadExhaustionAgainstDeadOnlyNode(t *testing.T) {
	tc := newTestCluster(t, 1)
	tc.pfs.Put("f", []byte("x"))
	// staticRouter never reroutes, so attempts exhaust.
	c, err := NewClient(ClientConfig{
		Endpoints:    tc.endpoints(),
		Network:      tc.network,
		Router:       staticRouter{node: "node-00"},
		PFS:          tc.pfs,
		RPCTimeout:   20 * time.Millisecond,
		TimeoutLimit: 2,
		MaxAttempts:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tc.servers["node-00"].SetUnresponsive(true)
	if _, err := c.Read(context.Background(), "f"); !errors.Is(err, ErrExhausted) {
		t.Errorf("err = %v, want ErrExhausted", err)
	}
}

func TestParentContextCancellation(t *testing.T) {
	tc := newTestCluster(t, 1)
	tc.pfs.Put("f", []byte("x"))
	c := tc.client(staticRouter{node: "node-00"}, 10*time.Second)
	tc.servers["node-00"].SetUnresponsive(true)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	if _, err := c.Read(ctx, "f"); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Error("empty config should fail")
	}
}

func TestConcurrentReadsSingleServer(t *testing.T) {
	tc := newTestCluster(t, 1)
	for i := 0; i < 32; i++ {
		tc.pfs.Put(fmt.Sprintf("f%d", i), bytes.Repeat([]byte{byte(i)}, 128))
	}
	c := tc.client(staticRouter{node: "node-00"}, 2*time.Second)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				p := fmt.Sprintf("f%d", (g*16+i)%32)
				data, err := c.Read(ctx, p)
				if err != nil {
					errs <- err
					return
				}
				if len(data) != 128 {
					errs <- fmt.Errorf("short read %d", len(data))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestProtocolRoundTrips(t *testing.T) {
	rr := ReadReq{Path: "a/b", Offset: 7, Length: -1}
	var rr2 ReadReq
	if err := rr2.Unmarshal(rr.Marshal()); err != nil || rr2 != rr {
		t.Errorf("ReadReq: %+v, %v", rr2, err)
	}
	resp := ReadResp{Source: SourcePFS, FileSize: 99, Data: []byte("zzz")}
	var resp2 ReadResp
	if err := resp2.Unmarshal(resp.Marshal()); err != nil ||
		resp2.Source != resp.Source || resp2.FileSize != resp.FileSize ||
		!bytes.Equal(resp2.Data, resp.Data) {
		t.Errorf("ReadResp: %+v, %v", resp2, err)
	}
	st := StatResp{Size: 12, Cached: true}
	var st2 StatResp
	if err := st2.Unmarshal(st.Marshal()); err != nil || st2 != st {
		t.Errorf("StatResp: %+v, %v", st2, err)
	}
	ss := StatsResp{NVMeObjects: 1, NVMeBytes: 2, NVMeHits: 3, NVMeMisses: 4,
		PFSFallbacks: 5, MoverEnqueued: 6, MoverDropped: 7}
	var ss2 StatsResp
	if err := ss2.Unmarshal(ss.Marshal()); err != nil || ss2 != ss {
		t.Errorf("StatsResp: %+v, %v", ss2, err)
	}

	// Truncated payloads must error, not panic.
	for _, m := range [][]byte{rr.Marshal(), resp.Marshal(), st.Marshal(), ss.Marshal()} {
		var r1 ReadReq
		var r2 ReadResp
		var r3 StatResp
		var r4 StatsResp
		if len(m) < 2 {
			continue
		}
		trunc := m[:len(m)/2]
		if r1.Unmarshal(trunc) == nil && r2.Unmarshal(trunc) == nil &&
			r3.Unmarshal(trunc) == nil && r4.Unmarshal(trunc) == nil {
			t.Error("all decoders accepted a truncated payload")
		}
	}
}

func BenchmarkReadCached(b *testing.B) {
	network := rpc.NewInprocNetwork()
	pfs := storage.NewPFS()
	data := make([]byte, 64<<10)
	pfs.Put("f", data)
	srv := NewServer(ServerConfig{Node: "n0"}, pfs)
	lis, _ := network.Listen("n0")
	go srv.Serve(lis)
	defer srv.Close()
	c, err := NewClient(ClientConfig{
		Endpoints:  map[cluster.NodeID]string{"n0": "n0"},
		Network:    network,
		Router:     staticRouter{node: "n0"},
		PFS:        pfs,
		RPCTimeout: 5 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	c.Read(ctx, "f")
	srv.Mover().Flush()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Read(ctx, "f"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestClientLatencyTracking(t *testing.T) {
	tc := newTestCluster(t, 1)
	tc.pfs.Put("f", []byte("abc"))
	c := tc.client(staticRouter{node: "node-00"}, time.Second)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := c.Read(ctx, "f"); err != nil {
			t.Fatal(err)
		}
	}
	lat := c.Latency()
	if lat.N != 50 {
		t.Errorf("latency samples = %d, want 50", lat.N)
	}
	if lat.Mean <= 0 || lat.P50 <= 0 || lat.P95 < lat.P50 || lat.P99 < lat.P95 {
		t.Errorf("latency snapshot malformed: %+v", lat)
	}
	if lat.Max < lat.Mean || lat.Min > lat.Mean {
		t.Errorf("min/mean/max inconsistent: %+v", lat)
	}
}

// TestWarmReadAllocs is the ceiling on one warm Client.Read of a 4 KiB
// object over the in-process pipe, counted across client and server:
// what the request encoding, the server's decode and response head and
// the reply the caller keeps allocate — three today. The server answers
// a warm hit on the connection's reading goroutine, so no per-request
// goroutine closure is among them. A derived context, a timer, a
// goroutine or a channel per read does not fit under it (the per-call
// context.WithTimeout and write-deadline timer this replaced cost
// fourteen).
//
// The second input is a load-controlled client reading 512 keys
// uniformly, none of them hot: every read pays the sketch touch and the
// coalescing flight, and an accidental fan-out, goroutine or allocation
// on that path does not fit either (four today, one above the static
// input). It replaces the benchguard-tagged loadctl overhead guard.
//
// The third input is the static read with tracing enabled at a sample
// rate no measured read reaches: an unsampled read pays one atomic add
// for its trace id and nothing else (DESIGN §14.3), so it must allocate
// exactly what the same client's untraced read does, and the recorder
// must have been offered nothing. It replaces the benchguard-tagged
// TestTraceOverheadGuard, whose 30 % timing threshold existed to catch
// an allocation, lock or clock read on the unsampled path.
func TestWarmReadAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	ctx := context.Background()
	measure := func(t *testing.T, c *Client, paths []string) float64 {
		for _, p := range paths { // warm-up; the static input's miss fills NVMe
			if _, err := c.Read(ctx, p); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		n := testing.AllocsPerRun(500, func() {
			if _, err := c.Read(ctx, paths[i%len(paths)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("warm Read: %v allocs", n)
		if n > 4 {
			t.Errorf("warm Read: %v allocs, want <= 4", n)
		}
		return n
	}
	t.Run("static", func(t *testing.T) {
		tc := newTestCluster(t, 1)
		tc.pfs.Put("f", make([]byte, 4096))
		measure(t, tc.client(staticRouter{node: "node-00"}, 10*time.Second), []string{"f"})
	})
	t.Run("loadctl uniform", func(t *testing.T) {
		tc := newLoadctlCluster(t, 2, ServerConfig{})
		paths := make([]string, 512)
		for i := range paths {
			paths[i] = fmt.Sprintf("f%d", i)
			tc.pfs.Put(paths[i], make([]byte, 4096))
			tc.servers["node-00"].NVMe().Put(paths[i], make([]byte, 4096))
		}
		c := tc.client(ClientConfig{
			Router:      newReplRouter(tc.nodes),
			RPCTimeout:  10 * time.Second,
			LoadControl: &loadctl.Config{},
		})
		measure(t, c, paths)
	})
	t.Run("traced unsampled", func(t *testing.T) {
		tc := newTestCluster(t, 1)
		tc.pfs.Put("f", make([]byte, 4096))
		c := tc.client(staticRouter{node: "node-00"}, 10*time.Second)
		off := measure(t, c, []string{"f"})
		rec := trace.Enable(trace.DefaultCapacity, 1)
		defer trace.Disable()
		rec.SetSampleRate(math.MaxInt)
		if on := measure(t, c, []string{"f"}); on != off {
			t.Errorf("unsampled traced Read: %v allocs, untraced %v; want equal", on, off)
		}
		if st := rec.Stats(); st.Offered != 0 {
			t.Errorf("recorder offered %d traces; no read should have been sampled", st.Offered)
		}
	})
}

// TestDeviceReadAllocs: a read that waits out the simulated device
// allocates no more than one that does not (bench's
// hvac.server_read_nvme_allocs, 4) — the wait parks on a pooled waiter,
// and a traced read's device_wait_ns is the queue share the device
// computed, not a second clock read.
func TestDeviceReadAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	srv := NewServer(ServerConfig{Node: "n", ReadDelay: 20 * time.Microsecond}, storage.NewPFS())
	defer srv.Close()
	if err := srv.NVMe().Put("f", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	req := (&ReadReq{Path: "f", Length: -1}).Marshal()
	n := testing.AllocsPerRun(200, func() {
		if lr := srv.HandleLeased(OpRead, req, 0); lr.Status != rpc.StatusOK || len(lr.Ext) != 4096 {
			t.Fatalf("read: status %d, %d bytes", lr.Status, len(lr.Ext))
		}
	})
	if n > 4 {
		t.Errorf("device-served read: %v allocs, want <= 4", n)
	}
}
