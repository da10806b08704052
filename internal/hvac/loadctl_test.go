package hvac

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/loadctl"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// replRouter is a minimal ring-like replicating Router for load-control
// tests: every path's candidate order is the fixed node list with failed
// nodes skipped, so the owner is deterministic and the replica set is
// the remaining nodes in order.
type replRouter struct {
	noPlans
	mu     sync.Mutex
	nodes  []cluster.NodeID
	failed map[cluster.NodeID]bool
}

func newReplRouter(nodes []cluster.NodeID) *replRouter {
	return &replRouter{nodes: nodes, failed: make(map[cluster.NodeID]bool)}
}

func (r *replRouter) Name() string { return "repl-test" }

func (r *replRouter) Route(path string) Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.nodes {
		if !r.failed[n] {
			return Decision{Kind: RouteNode, Node: n}
		}
	}
	return Decision{Kind: RoutePFS}
}

func (r *replRouter) NodeFailed(n cluster.NodeID) {
	r.mu.Lock()
	r.failed[n] = true
	r.mu.Unlock()
}

func (r *replRouter) Replicas(path string, n int) []cluster.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]cluster.NodeID, 0, n)
	for _, node := range r.nodes {
		if len(out) == n {
			break
		}
		if !r.failed[node] {
			out = append(out, node)
		}
	}
	return out
}

// loadctlCluster boots n servers with a shared per-server config — the
// generic newTestCluster always uses defaults, and the load-control
// tests need admission limits and simulated service time.
type loadctlCluster struct {
	t       testing.TB
	network *rpc.InprocNetwork
	pfs     *storage.PFS
	servers map[cluster.NodeID]*Server
	nodes   []cluster.NodeID
}

func newLoadctlCluster(t testing.TB, n int, scfg ServerConfig) *loadctlCluster {
	t.Helper()
	tc := &loadctlCluster{
		t:       t,
		network: rpc.NewInprocNetwork(),
		pfs:     storage.NewPFS(),
		servers: make(map[cluster.NodeID]*Server),
	}
	for i := 0; i < n; i++ {
		node := cluster.NodeID(fmt.Sprintf("node-%02d", i))
		tc.nodes = append(tc.nodes, node)
		cfg := scfg
		cfg.Node = node
		srv := NewServer(cfg, tc.pfs)
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

func (tc *loadctlCluster) client(cfg ClientConfig) *Client {
	tc.t.Helper()
	eps := make(map[cluster.NodeID]string, len(tc.nodes))
	for _, n := range tc.nodes {
		eps[n] = string(n)
	}
	cfg.Endpoints = eps
	cfg.Network = tc.network
	cfg.PFS = tc.pfs
	c, err := NewClient(cfg)
	if err != nil {
		tc.t.Fatalf("NewClient: %v", err)
	}
	tc.t.Cleanup(c.Close)
	return c
}

// TestLoadctlCoalescedConcurrentMiss drives many concurrent readers of
// one cold path through a load-controlled client: exactly one flight
// should reach the server per wave and everyone else inherits its
// result.
func TestLoadctlCoalescedConcurrentMiss(t *testing.T) {
	testutil.CheckGoroutines(t)
	tc := newLoadctlCluster(t, 1, ServerConfig{})
	tc.pfs.Put("data/cold", []byte("cold-payload"))
	// The PFS delay keeps the winning flight in-server, in its miss
	// fetch, long enough that the other readers demonstrably pile onto it.
	tc.pfs.SetReadDelay(20 * time.Millisecond)
	c := tc.client(ClientConfig{
		Router:      newReplRouter(tc.nodes),
		RPCTimeout:  2 * time.Second,
		LoadControl: &loadctl.Config{},
	})

	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, err := c.Read(context.Background(), "data/cold")
			if err != nil {
				errs <- err
				return
			}
			if string(data) != "cold-payload" {
				errs <- fmt.Errorf("bad data %q", data)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := tc.servers["node-00"].Reads(); got >= readers {
		t.Fatalf("server saw %d reads for %d concurrent readers — no coalescing", got, readers)
	}
	if reads, _, _ := tc.pfs.Counters(); reads != 1 {
		t.Fatalf("%d PFS reads for one cold path, want 1", reads)
	}
	if st := c.Stats(); st.CoalescedReads == 0 {
		t.Fatalf("no coalesced reads recorded: %+v", st)
	}
	if n := c.load.Coalesce.Inflight(); n != 0 {
		t.Fatalf("%d flights still registered after all reads returned", n)
	}
}

// TestLoadctlCoalesceNodeKillMidFlight kills the owner while a coalesced
// flight is being served. The winner's RPC dies, the failover loop (or a
// retrying waiter) re-routes to the surviving node, and every reader
// still gets the bytes — with no flight record or goroutine left behind.
func TestLoadctlCoalesceNodeKillMidFlight(t *testing.T) {
	testutil.CheckGoroutines(t)
	tc := newLoadctlCluster(t, 2, ServerConfig{})
	tc.pfs.Put("data/victim", []byte("victim-payload"))
	// The flight waits on node-00's miss fetch far longer than the kill
	// takes to come.
	tc.pfs.SetReadDelay(100 * time.Millisecond)
	c := tc.client(ClientConfig{
		Router:       newReplRouter(tc.nodes),
		RPCTimeout:   time.Second,
		TimeoutLimit: 1, // first connection failure declares the node
		LoadControl:  &loadctl.Config{},
	})

	before := runtime.NumGoroutine()
	const readers = 8
	var wg sync.WaitGroup
	var returned atomic.Int64
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer returned.Add(1)
			data, err := c.Read(context.Background(), "data/victim")
			if err != nil {
				errs <- err
				return
			}
			if string(data) != "victim-payload" {
				errs <- fmt.Errorf("bad data %q", data)
			}
		}()
	}
	// Let the flight reach node-00's PFS fetch, then kill the node.
	time.Sleep(10 * time.Millisecond)
	if n := returned.Load(); n != 0 {
		t.Fatalf("%d reads returned before the kill; the flight was not in progress", n)
	}
	tc.servers["node-00"].Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if n := c.load.Coalesce.Inflight(); n != 0 {
		t.Fatalf("%d flights still registered after the kill", n)
	}
	// Goroutine-leak check: allow the runtime a moment to reap the dead
	// server's connection handlers, then demand we are back near where we
	// started.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+4 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after node-kill mid-flight",
		before, runtime.NumGoroutine())
}

// TestLoadctlFanoutUnresponsiveOwner is the failure-detector hygiene
// regression: an unresponsive owner of a hot key must NOT be declared
// dead by abandoned fan-out legs — reads succeed via replicas and the
// timeout counter stays at zero even with the most trigger-happy
// detector setting.
func TestLoadctlFanoutUnresponsiveOwner(t *testing.T) {
	testutil.CheckGoroutines(t)
	tc := newLoadctlCluster(t, 3, ServerConfig{})
	body := []byte("hot-payload")
	// Warm every node's cache so replicas serve without PFS traffic.
	for _, n := range tc.nodes {
		tc.servers[n].NVMe().Put("data/hot", body)
	}
	c := tc.client(ClientConfig{
		Router:       newReplRouter(tc.nodes),
		RPCTimeout:   50 * time.Millisecond,
		TimeoutLimit: 1, // one noted timeout would declare the node dead
		LoadControl:  &loadctl.Config{SampleRate: 1},
	})
	ctx := context.Background()

	// Make the key hot with the owner healthy.
	for i := 0; i < 32; i++ {
		if _, err := c.Read(ctx, "data/hot"); err != nil {
			t.Fatalf("warm read %d: %v", i, err)
		}
	}
	if !c.load.Sketch.IsHot("data/hot") {
		t.Fatal("key not flagged hot after warmup")
	}

	tc.servers["node-00"].SetUnresponsive(true)
	for i := 0; i < 5; i++ {
		data, err := c.Read(ctx, "data/hot")
		if err != nil {
			t.Fatalf("read %d with unresponsive owner: %v", i, err)
		}
		if string(data) != string(body) {
			t.Fatalf("read %d: bad data %q", i, data)
		}
	}

	if !c.Tracker().IsAlive("node-00") {
		t.Fatal("unresponsive owner declared dead by abandoned fan-out legs")
	}
	if st := c.Stats(); st.Timeouts != 0 {
		t.Fatalf("fan-out legs fed the failure detector: %+v", st)
	}
}

// TestLoadctlHedgeBeatsUnresponsiveFirstLeg: once the hedge estimator
// is warm, a hot read whose first leg goes to a node that stopped
// answering is served by the hedged leg at the hedge delay, well before
// RPCTimeout. The winner interrupts the first leg, which is neither a
// timeout nor evidence, and no leg's goroutine outlives the read.
func TestLoadctlHedgeBeatsUnresponsiveFirstLeg(t *testing.T) {
	testutil.CheckGoroutines(t)
	tc := newLoadctlCluster(t, 2, ServerConfig{})
	body := []byte("hot-payload")
	for _, n := range tc.nodes {
		tc.servers[n].NVMe().Put("data/hot", body)
	}
	const rpcTimeout = 5 * time.Second
	c := tc.client(ClientConfig{
		Router:       newReplRouter(tc.nodes),
		RPCTimeout:   rpcTimeout,
		TimeoutLimit: 1, // one noted timeout would declare the node dead
		LoadControl:  &loadctl.Config{SampleRate: 1, Replicas: 1},
	})
	ctx := context.Background()
	// Single-leg reads of cold keys warm the hedge estimator; then the
	// hot key takes the traffic.
	for i := 0; i < 512; i++ {
		p := fmt.Sprintf("data/cold%d", i)
		tc.servers["node-00"].NVMe().Put(p, body)
		if _, err := c.Read(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		if _, err := c.Read(ctx, "data/hot"); err != nil {
			t.Fatal(err)
		}
	}
	delay, ok := c.load.Hedge.Delay()
	if !ok || !c.load.Sketch.IsHot("data/hot") {
		t.Fatalf("hedge ready %v, hot %v; want both", ok, c.load.Sketch.IsHot("data/hot"))
	}
	// p2c sends the first leg to the node with the lower latency
	// estimate: node-00, once node-01 looks an hour slow.
	for range 32 {
		c.load.Latency.Observe("node-01", time.Hour)
	}
	before := c.Stats()
	tc.servers["node-00"].SetUnresponsive(true)
	start := time.Now()
	data, err := c.Read(ctx, "data/hot")
	took := time.Since(start)
	if err != nil || string(data) != string(body) {
		t.Fatalf("read with the first leg unresponsive: %q, %v", data, err)
	}
	t.Logf("hedge delay %v, read %v", delay, took)
	if took > rpcTimeout/5 {
		t.Errorf("read took %v; the hedge (delay %v) should answer well before RPCTimeout %v", took, delay, rpcTimeout)
	}
	st := c.Stats()
	if st.HedgedReads-before.HedgedReads != 1 || st.HedgeWins-before.HedgeWins != 1 {
		t.Errorf("hedged reads +%d, hedge wins +%d; want +1 each",
			st.HedgedReads-before.HedgedReads, st.HedgeWins-before.HedgeWins)
	}
	if st.Timeouts != 0 || !c.Tracker().IsAlive("node-00") {
		t.Errorf("the interrupted first leg was taken as evidence: %d timeouts, node-00 alive %v",
			st.Timeouts, c.Tracker().IsAlive("node-00"))
	}
}

// TestLoadctlOverloadShedIsNotFailureEvidence saturates a server whose
// admission limiter sheds aggressively: every shed must surface as an
// explicit redirect (served via PFS), never as failure evidence — the
// node stays alive and the timeout counter stays at zero. The objects
// are on NVMe, so every served read holds the one slot across its
// device wait.
func TestLoadctlOverloadShedIsNotFailureEvidence(t *testing.T) {
	testutil.CheckGoroutines(t)
	tc := newLoadctlCluster(t, 1, ServerConfig{
		AdmissionLimit: 1,
		AdmissionQueue: 0,
		ReadDelay:      10 * time.Millisecond,
	})
	const workers = 8
	for i := 0; i < workers; i++ {
		path, body := fmt.Sprintf("data/f%d", i), []byte(fmt.Sprintf("payload-%d", i))
		tc.pfs.Put(path, body)
		tc.servers["node-00"].NVMe().Put(path, body)
	}
	c := tc.client(ClientConfig{
		Router:       newReplRouter(tc.nodes),
		RPCTimeout:   time.Second,
		TimeoutLimit: 1,
		LoadControl:  &loadctl.Config{},
	})

	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := fmt.Sprintf("data/f%d", w)
			want := fmt.Sprintf("payload-%d", w)
			for i := 0; i < 5; i++ {
				data, err := c.Read(context.Background(), path)
				if err != nil || string(data) != want {
					failures.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d workers failed — sheds must redirect, not error", n)
	}
	st := c.Stats()
	if st.ShedRedirects == 0 {
		t.Fatalf("limiter never shed under 8x overload: %+v", st)
	}
	if st.Timeouts != 0 {
		t.Fatalf("overload sheds were counted as timeouts: %+v", st)
	}
	if !c.Tracker().IsAlive("node-00") {
		t.Fatal("overloaded-but-alive node was declared dead")
	}
	if _, _, shed := tc.servers["node-00"].Limiter().Stats(); shed == 0 {
		t.Fatal("server-side shed counter is zero despite client redirects")
	}
}

// TestHotReplicaSetUnreachableFailsOver pins the one evidence rule on
// the hot-key path: the routed owner is noted only when every raced leg
// failed timeout- or conn-class. Two nodes, the key made hot, then a
// fault on the replica set: a dead set must be declared node by node
// until the PFS serves; an unresponsive owner beside a live replica and
// a set that sheds are never evidence.
func TestHotReplicaSetUnreachableFailsOver(t *testing.T) {
	cases := []struct {
		name     string
		scfg     ServerConfig
		fault    func(t *testing.T, tc *loadctlCluster)
		declared bool // both nodes declared, the PFS serves
	}{
		{
			name: "closed",
			fault: func(t *testing.T, tc *loadctlCluster) {
				for _, s := range tc.servers {
					s.Close()
				}
			},
			declared: true,
		},
		{
			name: "owner unresponsive",
			fault: func(t *testing.T, tc *loadctlCluster) {
				tc.servers["node-00"].SetUnresponsive(true)
			},
		},
		{
			name: "shedding",
			scfg: ServerConfig{AdmissionLimit: 1},
			fault: func(t *testing.T, tc *loadctlCluster) {
				// Hold each server's only slot: every read now sheds.
				for _, s := range tc.servers {
					if !s.Limiter().Acquire() {
						t.Fatal("could not take the admission slot")
					}
					t.Cleanup(s.Limiter().Release)
				}
			},
		},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			tc := newLoadctlCluster(t, 2, tt.scfg)
			body := []byte("hot-payload")
			tc.pfs.Put("data/hot", body)
			for _, n := range tc.nodes {
				tc.servers[n].NVMe().Put("data/hot", body)
			}
			c := tc.client(ClientConfig{
				Router:       newReplRouter(tc.nodes),
				RPCTimeout:   50 * time.Millisecond,
				TimeoutLimit: 2,
				LoadControl:  &loadctl.Config{SampleRate: 1},
			})
			ctx := context.Background()
			for i := 0; i < 32; i++ {
				if _, err := c.Read(ctx, "data/hot"); err != nil {
					t.Fatalf("warm read %d: %v", i, err)
				}
			}
			if !c.load.Sketch.IsHot("data/hot") {
				t.Fatal("key not flagged hot after warmup")
			}
			// The won race's hot push rides an async put batch, which
			// holds an admission slot while a server stores it: land it
			// before the fault takes the slots.
			if err := c.Flush(ctx); err != nil {
				t.Fatal(err)
			}

			tt.fault(t, tc)
			data, err := c.Read(ctx, "data/hot")
			st := c.Stats()
			if err != nil || string(data) != string(body) {
				t.Fatalf("read after fault: %q, %v (%+v)", data, err, st)
			}
			for _, n := range tc.nodes {
				if alive := c.Tracker().IsAlive(n); alive == tt.declared {
					t.Errorf("%s alive=%v, want %v (%+v)", n, alive, !tt.declared, st)
				}
			}
			switch {
			case tt.declared && (st.DirectPFS != 1 || st.Timeouts != 4):
				// TimeoutLimit notes per node, one per attempt, then the PFS.
				t.Errorf("DirectPFS=%d Timeouts=%d, want 1 and 4: %+v", st.DirectPFS, st.Timeouts, st)
			case !tt.declared && st.Timeouts != 0:
				t.Errorf("Timeouts=%d, want no evidence: %+v", st.Timeouts, st)
			}
		})
	}
}

// TestHotPushReachesSuccessors: a hot whole-file read pushes the object
// to the owner's successors once per ring epoch, through the ingest
// batches, and HotPushes counts each push. The successors are made to
// look slow so p2c never sends them a leg: only the push can put the
// object there.
func TestHotPushReachesSuccessors(t *testing.T) {
	// One case, named for the ingest batches the push rides.
	t.Run("ingest=true", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		tc := newLoadctlCluster(t, 3, ServerConfig{})
		body := []byte("hot-payload")
		tc.pfs.Put("data/hot", body)
		c := tc.client(ClientConfig{
			Router:       newReplRouter(tc.nodes),
			RPCTimeout:   time.Second,
			TimeoutLimit: 2,
			LoadControl:  &loadctl.Config{SampleRate: 1, Replicas: 1},
			Ingest:       &IngestConfig{MaxDelay: time.Minute},
		})
		lat := c.load.Latency
		lat.Observe("node-01", time.Hour)
		lat.Observe("node-02", time.Hour)
		ctx := context.Background()
		epoch := func(successor cluster.NodeID, pushes int64) {
			t.Helper()
			for i := 0; i < 32; i++ {
				if data, err := c.Read(ctx, "data/hot"); err != nil || string(data) != string(body) {
					t.Fatalf("read %d: %q, %v", i, data, err)
				}
			}
			if err := c.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if !tc.servers[successor].NVMe().Has("data/hot") {
				t.Errorf("successor %s missing the hot object", successor)
			}
			if got := c.Stats().HotPushes; got != pushes {
				t.Errorf("HotPushes=%d, want %d", got, pushes)
			}
		}
		epoch("node-01", 1)
		if tc.servers["node-02"].NVMe().Has("data/hot") {
			t.Fatal("node-02 holds the object before it is a successor")
		}
		// A membership change is a new ring epoch: node-02 becomes the
		// successor and receives the object once.
		declare(c.Tracker(), "node-01")
		epoch("node-02", 2)
	})
}

// TestLoadctlWaitReplicationContext verifies that Flush waits for
// replica pushes with a live context, and returns instead of blocking
// on an already-cancelled one.
func TestLoadctlWaitReplicationContext(t *testing.T) {
	testutil.CheckGoroutines(t)
	tc := newLoadctlCluster(t, 2, ServerConfig{})
	tc.pfs.Put("data/r", []byte("r-payload"))
	router := newReplRouter(tc.nodes)
	c := tc.client(ClientConfig{
		Router:            router,
		RPCTimeout:        time.Second,
		ReplicationFactor: 2,
	})
	ctx := context.Background()
	if _, err := c.Read(ctx, "data/r"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("Flush with live ctx: %v", err)
	}
	if !tc.servers["node-01"].NVMe().Has("data/r") {
		t.Fatal("replica not present after Flush returned")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	// No pushes in flight: either outcome returns promptly, but a
	// cancelled context must never block.
	done := make(chan struct{})
	go func() { c.Flush(cancelled); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Flush blocked on a cancelled context")
	}
}
