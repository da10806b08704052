package hvac

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/rpc"
	"repro/internal/testutil"
)

// planRouter is staticRouter plus a canned recache plan: the smallest
// Router that makes a client ship hints.
type planRouter struct {
	staticRouter
	plan map[cluster.NodeID][]string
}

func (p planRouter) PlanRecache(cluster.NodeID, []string) map[cluster.NodeID][]string {
	return p.plan
}

func (tc *testCluster) planClient(router Router, timeout time.Duration) *Client {
	tc.t.Helper()
	c, err := NewClient(ClientConfig{
		Endpoints:  tc.endpoints(),
		Network:    tc.network,
		Router:     router,
		PFS:        tc.pfs,
		RPCTimeout: timeout,
		Manifest:   tc.pfs.Paths,
	})
	if err != nil {
		tc.t.Fatalf("NewClient: %v", err)
	}
	tc.t.Cleanup(c.Close)
	return c
}

func stage(tc *testCluster, n int) []string {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("ds/f%04d", i)
		tc.pfs.Put(paths[i], []byte(paths[i]))
	}
	return paths
}

func pfsReads(tc *testCluster) int64 {
	r, _, _ := tc.pfs.Counters()
	return r
}

// serverRead is one demand read straight into the server's handler.
func serverRead(t *testing.T, srv *Server, path string) ReadResp {
	t.Helper()
	status, payload := srv.Handle(OpRead, (&ReadReq{Path: path, Length: -1}).Marshal())
	if status != rpc.StatusOK {
		t.Errorf("read %s: status %d: %s", path, status, payload)
		return ReadResp{}
	}
	var resp ReadResp
	if err := resp.Unmarshal(payload); err != nil {
		t.Errorf("read %s: %v", path, err)
	}
	if string(resp.Data) != path {
		t.Errorf("read %s returned %q", path, resp.Data)
	}
	return resp
}

func hint(t *testing.T, srv *Server, failed string, paths []string) {
	t.Helper()
	if status, payload := srv.Handle(OpRecache, (&RecacheReq{Failed: failed, Paths: paths}).Marshal()); status != rpc.StatusOK {
		t.Fatalf("recache hint: status %d: %s", status, payload)
	}
}

// TestMissFlightFetchesOnce fires a herd of demand misses and a prefetch
// at one path while the PFS is slow: one flight, one PFS read, and the
// object is cached by the time any of them returns.
func TestMissFlightFetchesOnce(t *testing.T) {
	tc := newTestCluster(t, 1)
	srv := tc.servers["node-00"]
	path := stage(tc, 1)[0]
	tc.pfs.SetReadDelay(20 * time.Millisecond)

	const herd = 16
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp := serverRead(t, srv, path); resp.Source != SourcePFS {
				t.Errorf("herd read served from source %d, want PFS", resp.Source)
			}
			if !srv.NVMe().Has(path) {
				t.Error("a read returned before its flight had cached the object")
			}
		}()
	}
	hint(t, srv, "node-09", []string{path})
	wg.Wait()
	srv.Mover().Flush()
	if got := pfsReads(tc); got != 1 {
		t.Fatalf("PFS reads = %d for %d concurrent misses + a prefetch of one path, want 1", got, herd)
	}
	// A read that arrives after the flight is a plain NVMe hit; a repeated
	// hint is a map probe.
	if resp := serverRead(t, srv, path); resp.Source != SourceNVMe {
		t.Errorf("follow-up read source %d, want NVMe", resp.Source)
	}
	hint(t, srv, "node-09", []string{path})
	srv.Mover().Flush()
	if got := pfsReads(tc); got != 1 {
		t.Errorf("PFS reads = %d after a repeated hint, want still 1", got)
	}
}

// TestRecacheOverflowFillsOnDemand overflows the recache queue: the
// hints that did not fit are dropped before any PFS read, and every path
// — prefetched or not — still costs exactly one PFS read in total. A
// closed mover loses nothing either.
func TestRecacheOverflowFillsOnDemand(t *testing.T) {
	tc := newTestCluster(t, 1)
	srv := tc.servers["node-00"]
	paths := stage(tc, 24)
	tc.pfs.SetReadDelay(2 * time.Millisecond)
	srv.mover.recacheCap = 4

	hint(t, srv, "node-09", paths[:20])
	srv.Mover().Flush()
	enq, drop := srv.Mover().Counters()
	if enq != 4 || drop != 16 {
		t.Fatalf("hint of 20 paths into a queue of 4: accepted %d dropped %d, want 4 and 16", enq, drop)
	}
	if got := pfsReads(tc); got != 4 {
		t.Fatalf("PFS reads after the prefetch = %d, want 4", got)
	}
	for round := 0; round < 2; round++ {
		for _, p := range paths[:20] {
			serverRead(t, srv, p)
		}
		if got := pfsReads(tc); got != 20 {
			t.Fatalf("round %d: PFS reads = %d for 20 paths, want one each", round, got)
		}
	}

	srv.mover.Close()
	hint(t, srv, "node-09", paths[20:22]) // refused: no PFS read, no panic
	for round := 0; round < 2; round++ {
		for _, p := range paths[20:] {
			serverRead(t, srv, p)
		}
	}
	if got := pfsReads(tc); got != 24 {
		t.Errorf("PFS reads = %d for 24 paths with the mover closed for the last 4, want 24", got)
	}
}

// TestStatIsMetadataOnly: a stat answers from sizes alone — no NVMe hit
// or miss, no PFS data read, no PFS read delay.
func TestStatIsMetadataOnly(t *testing.T) {
	tc := newTestCluster(t, 1)
	srv := tc.servers["node-00"]
	paths := stage(tc, 2)
	serverRead(t, srv, paths[0]) // paths[0] cached, paths[1] PFS-only
	tc.pfs.SetReadDelay(time.Second)

	hits0, misses0, _ := srv.NVMe().Counters()
	reads0, bytes0, meta0 := tc.pfs.Counters()
	start := time.Now()
	for i, wantCached := range []bool{true, false} {
		status, payload := srv.Handle(OpStat, (&StatReq{Path: paths[i]}).Marshal())
		var resp StatResp
		if err := resp.Unmarshal(payload); status != rpc.StatusOK || err != nil {
			t.Fatalf("stat %s: status %d err %v", paths[i], status, err)
		}
		if resp.Size != int64(len(paths[i])) || resp.Cached != wantCached {
			t.Errorf("stat %s = %+v, want size %d cached %v", paths[i], resp, len(paths[i]), wantCached)
		}
	}
	if status, _ := srv.Handle(OpStat, (&StatReq{Path: "ds/absent"}).Marshal()); status != StatusNotFound {
		t.Errorf("stat of an absent path: status %d, want not-found", status)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("three stats took %v: a stat paid the PFS read delay", d)
	}
	hits1, misses1, _ := srv.NVMe().Counters()
	reads1, bytes1, meta1 := tc.pfs.Counters()
	if hits1 != hits0 || misses1 != misses0 {
		t.Errorf("stat moved the NVMe hit/miss counters: %d/%d -> %d/%d", hits0, misses0, hits1, misses1)
	}
	if reads1 != reads0 || bytes1 != bytes0 {
		t.Errorf("stat counted PFS data reads: %d reads %d bytes -> %d reads %d bytes", reads0, bytes0, reads1, bytes1)
	}
	if meta1-meta0 != 2 {
		t.Errorf("PFS metadata ops = %d for two PFS-side stats, want 2", meta1-meta0)
	}
}

// TestHintToUnresponsiveReceiver: a receiver that never answers its hint
// costs the sender goroutine one RPC timeout and nothing else — reads
// keep their latency and the failure detector hears none of it.
func TestHintToUnresponsiveReceiver(t *testing.T) {
	tc := newTestCluster(t, 3)
	paths := stage(tc, 8*recacheChunk) // frames enough that sending them all outlasts the bound below
	tc.servers["node-02"].SetUnresponsive(true)
	const ttl = 300 * time.Millisecond
	c := tc.planClient(planRouter{
		staticRouter: staticRouter{node: "node-00"},
		plan:         map[cluster.NodeID][]string{"node-02": paths},
	}, ttl)
	ctx := context.Background()
	if _, err := c.Read(ctx, paths[0]); err != nil { // dial before timing anything
		t.Fatal(err)
	}

	start := time.Now()
	if !declare(c.Tracker(), "node-01") {
		t.Fatal("timeouts did not declare node-01")
	}
	for _, p := range paths[:64] {
		if _, err := c.Read(ctx, p); err != nil {
			t.Fatalf("read %s during the hint: %v", p, err)
		}
	}
	if d := time.Since(start); d >= ttl {
		t.Errorf("declaring the failure and 64 reads took %v, no less than the hint's %v timeout: the hint blocked them", d, ttl)
	}
	c.hintWG.Wait()
	if d := time.Since(start); d < ttl || d > 2*ttl+time.Second {
		t.Errorf("hint sender finished after %v, want one %v timeout (the remaining frames are skipped)", d, ttl)
	}
	if n := c.Stats().Timeouts; n != 0 {
		t.Errorf("client counted %d timeouts from a hint", n)
	}
	if !c.Tracker().IsAlive("node-02") {
		t.Error("hint timeout fed the detector: node-02 declared failed")
	}
	if enq, _ := tc.servers["node-02"].Mover().Counters(); enq != 0 {
		t.Errorf("silent receiver queued %d paths", enq)
	}
}

// TestHintsShipInReceiverOrder: a failure's hint frames reach their
// receivers in sorted order, whatever order the plan map ranges in, so
// one seed ships one sequence.
func TestHintsShipInReceiverOrder(t *testing.T) {
	network := rpc.NewInprocNetwork()
	eps := make(map[cluster.NodeID]string)
	plan := make(map[cluster.NodeID][]string)
	var want []cluster.NodeID
	var mu sync.Mutex
	var got []cluster.NodeID
	for i := 8; i >= 0; i-- { // node-00 fails, node-01..08 receive
		node := cluster.NodeID(fmt.Sprintf("node-%02d", i))
		eps[node] = string(node)
		srv := rpc.NewServer(rpc.HandlerFunc(func(op uint16, _ []byte) (uint16, []byte) {
			if op == OpRecache {
				mu.Lock()
				got = append(got, node)
				mu.Unlock()
			}
			return rpc.StatusOK, nil
		}))
		lis, err := network.Listen(string(node))
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(lis)
		t.Cleanup(srv.Close)
		if i > 0 {
			plan[node] = []string{"ds/" + string(node)}
			want = append(want, node)
		}
	}
	slices.Sort(want)
	c, err := NewClient(ClientConfig{
		Endpoints:  eps,
		Network:    network,
		Router:     planRouter{staticRouter: staticRouter{node: "node-00"}, plan: plan},
		RPCTimeout: time.Second,
		Manifest:   func() []string { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	declare(c.Tracker(), "node-00")
	c.hintWG.Wait()
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(got, want) {
		t.Errorf("hint frames reached %v, want %v", got, want)
	}
}

// TestReAddDropsOutstandingHints: re-adding the failed node cancels what
// its sender has not delivered yet, the frame in flight included.
func TestReAddDropsOutstandingHints(t *testing.T) {
	tc := newTestCluster(t, 3)
	paths := stage(tc, 8)
	tc.servers["node-02"].SetUnresponsive(true)
	c := tc.planClient(planRouter{
		staticRouter: staticRouter{node: "node-00"},
		plan:         map[cluster.NodeID][]string{"node-02": paths},
	}, time.Minute)
	declare(c.Tracker(), "node-01")
	time.Sleep(50 * time.Millisecond) // the first frame waits on the silent receiver
	start := time.Now()
	if !c.ReviveNode("node-01") {
		t.Fatal("ReviveNode did not transition node-01")
	}
	c.hintWG.Wait()
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("sender outlived the re-add by %v; its call should have been cancelled", d)
	}
}

// TestCloseStopsHintSenderAndRecacheWorkers: closing a client cancels a
// hint call stuck on a silent receiver, closing a server stops recache
// workers with most of their queue unfetched, and neither leaves a
// goroutine behind.
func TestCloseStopsHintSenderAndRecacheWorkers(t *testing.T) {
	testutil.CheckGoroutines(t)
	tc := newTestCluster(t, 3)
	paths := stage(tc, 512)
	tc.pfs.SetReadDelay(5 * time.Millisecond)
	tc.servers["node-02"].SetUnresponsive(true)
	var clients []*Client
	for _, receiver := range []cluster.NodeID{"node-00", "node-02"} {
		c := tc.planClient(planRouter{
			staticRouter: staticRouter{node: "node-00"},
			plan:         map[cluster.NodeID][]string{receiver: paths},
		}, time.Minute)
		declare(c.Tracker(), "node-01")
		clients = append(clients, c)
	}

	srv := tc.servers["node-00"]
	deadline := time.Now().Add(10 * time.Second)
	for pfsReads(tc) == 0 { // the responsive receiver has started fetching
		if time.Now().After(deadline) {
			t.Fatal("node-00 never started prefetching its hint")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	for _, c := range clients {
		c.Close()
	}
	srv.Close()
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("Close took %v with a hint outstanding and a recache queue pending", d)
	}
	if got := pfsReads(tc); got >= int64(len(paths)) {
		t.Errorf("PFS reads = %d of %d hinted paths: Close waited for the whole queue", got, len(paths))
	}
	srv.Mover().Flush() // returns: nothing is pending on a closed mover
}

// parkRouter is staticRouter with a failed set, whose PlanRecache
// announces itself on planning and waits for release.
type parkRouter struct {
	staticRouter
	planning, release chan struct{}
	mu                sync.Mutex
	failed            map[cluster.NodeID]bool
}

func (p *parkRouter) PlanRecache(cluster.NodeID, []string) map[cluster.NodeID][]string {
	close(p.planning)
	<-p.release
	return nil
}

func (p *parkRouter) NodeFailed(n cluster.NodeID) { p.set(n, true) }

func (p *parkRouter) NodeRecovered(n cluster.NodeID) { p.set(n, false) }

func (p *parkRouter) set(n cluster.NodeID, failed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed[n] = failed
}

// TestReviveDuringFailurePlan: a revive that lands while the client is
// still planning the node's recache wins. The tracker and the router
// both end with the node alive, so routing reaches it and a later
// failure is declared as usual, instead of the router keeping it failed
// behind a tracker that says alive, which Rejoin then refuses with
// ErrNotFailed.
func TestReviveDuringFailurePlan(t *testing.T) {
	tc := newTestCluster(t, 2)
	r := &parkRouter{
		staticRouter: staticRouter{node: "node-00"},
		planning:     make(chan struct{}),
		release:      make(chan struct{}),
		failed:       map[cluster.NodeID]bool{},
	}
	c := tc.planClient(r, time.Second)
	declared := make(chan struct{})
	go func() {
		defer close(declared)
		declare(c.Tracker(), "node-01")
	}()
	<-r.planning
	if !c.ReviveNode("node-01") {
		t.Fatal("ReviveNode did not transition node-01")
	}
	close(r.release)
	<-declared
	r.mu.Lock()
	defer r.mu.Unlock()
	if !c.Tracker().IsAlive("node-01") || r.failed["node-01"] {
		t.Errorf("tracker alive %v, router failed %v: want alive in both",
			c.Tracker().IsAlive("node-01"), r.failed["node-01"])
	}
}
