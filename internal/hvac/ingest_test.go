package hvac

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// hashRouter spreads paths over all nodes (fnv mod n) and names
// consecutive nodes as replicas — a deterministic stand-in for the ring
// so ingest tests cover multi-destination batching.
type hashRouter struct {
	noPlans
	nodes []cluster.NodeID
}

func (r hashRouter) Name() string { return "hash" }
func (r hashRouter) Route(path string) Decision {
	return Decision{Kind: RouteNode, Node: r.nodes[r.idx(path)]}
}
func (r hashRouter) NodeFailed(cluster.NodeID) {}
func (r hashRouter) idx(path string) int {
	h := fnv.New32a()
	h.Write([]byte(path))
	return int(h.Sum32() % uint32(len(r.nodes)))
}
func (r hashRouter) Replicas(path string, n int) []cluster.NodeID {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]cluster.NodeID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.nodes[(r.idx(path)+i)%len(r.nodes)])
	}
	return out
}

func (tc *testCluster) ingestClient(router Router, cfg *IngestConfig, replication int) *Client {
	tc.t.Helper()
	c, err := NewClient(ClientConfig{
		Endpoints:         tc.endpoints(),
		Network:           tc.network,
		Router:            router,
		PFS:               tc.pfs,
		RPCTimeout:        2 * time.Second,
		TimeoutLimit:      2,
		ReplicationFactor: replication,
		Ingest:            cfg,
	})
	if err != nil {
		tc.t.Fatalf("NewClient: %v", err)
	}
	tc.t.Cleanup(c.Close)
	return c
}

// TestIngestAckVisibility is the pipeline's core invariant: once Flush
// returns nil, every object accepted by PutAsync is readable from its
// owner — no buffered, un-acked writes survive the barrier.
func TestIngestAckVisibility(t *testing.T) {
	tc := newTestCluster(t, 4)
	router := hashRouter{nodes: tc.nodes}
	// A large MaxDelay ensures visibility comes from the explicit
	// barrier, not a lucky age flush racing the assertions.
	c := tc.ingestClient(router, &IngestConfig{MaxBatchEntries: 16, MaxDelay: time.Minute}, 0)

	const n = 300
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("ingest/f%03d", i)
		if err := c.PutAsync(path, []byte("batched-"+path)); err != nil {
			t.Fatalf("PutAsync %s: %v", path, err)
		}
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("ingest/f%03d", i)
		owner := router.Route(path).Node
		got, err := tc.servers[owner].NVMe().Get(path)
		if err != nil || string(got) != "batched-"+path {
			t.Fatalf("after Flush, %s not readable from owner %s: %q, %v", path, owner, got, err)
		}
	}
	// A second Flush with nothing buffered is a cheap no-op.
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("empty Flush: %v", err)
	}
}

// TestIngestBatchesPuts is the batching ceiling: n PutAsync calls to 8
// nodes followed by one Flush reach the servers in at most ⌈n/64⌉ + 8
// OpPutBatch frames — full batches plus one partial per node — and
// every object arrives inside one of them. It replaces the
// benchguard-tagged TestIngestBatchingSpeedupGuard, whose 1.3× timing
// threshold existed to catch the pipeline degrading to one RPC per put;
// BenchmarkIngestPuts still measures the speedup.
func TestIngestBatchesPuts(t *testing.T) {
	tc := newTestCluster(t, 8)
	router := hashRouter{nodes: tc.nodes}
	// A large MaxDelay keeps age flushes out: only full batches and the
	// barrier seal.
	c := tc.ingestClient(router, &IngestConfig{MaxBatchEntries: 64, MaxDelay: time.Minute}, 0)

	const n = 2000
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("batched/f%04d", i)
		if err := c.PutAsync(path, []byte(path)); err != nil {
			t.Fatalf("PutAsync %s: %v", path, err)
		}
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	var frames, entries int64
	for _, srv := range tc.servers {
		frames += srv.batchPuts.Load()
		entries += srv.batchEntries.Load()
	}
	t.Logf("%d puts: %d OpPutBatch frames carrying %d entries", n, frames, entries)
	if want := int64((n+63)/64 + len(tc.nodes)); frames > want {
		t.Errorf("%d puts sent in %d OpPutBatch frames, want <= %d", n, frames, want)
	}
	if entries != n {
		t.Errorf("%d of %d puts arrived in batches", entries, n)
	}
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("batched/f%04d", i)
		owner := router.Route(path).Node
		if got, err := tc.servers[owner].NVMe().Get(path); err != nil || string(got) != path {
			t.Fatalf("after Flush, %s not readable from owner %s: %q, %v", path, owner, got, err)
		}
	}
}

// benchIngestPuts drives b.N one-KiB puts from one client into a fresh
// 8-node in-process cluster — synchronously (one RPC per put) or through
// the batched async pipeline (PutAsync with periodic Flush barriers, the
// trailing barrier inside the timed region so acks are paid for).
func benchIngestPuts(b *testing.B, batched bool) {
	network := rpc.NewInprocNetwork()
	pfs := storage.NewPFS()
	var nodes []cluster.NodeID
	var servers []*Server
	for i := 0; i < 8; i++ {
		node := cluster.NodeID(fmt.Sprintf("node-%02d", i))
		nodes = append(nodes, node)
		srv := NewServer(ServerConfig{Node: node, NVMeCapacity: 8 << 20}, pfs)
		lis, err := network.Listen(string(node))
		if err != nil {
			b.Fatalf("listen %s: %v", node, err)
		}
		go srv.Serve(lis)
		servers = append(servers, srv)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	eps := make(map[cluster.NodeID]string, len(nodes))
	for _, n := range nodes {
		eps[n] = string(n)
	}
	var ing *IngestConfig
	if batched {
		ing = &IngestConfig{}
	}
	c, err := NewClient(ClientConfig{
		Endpoints:    eps,
		Network:      network,
		Router:       hashRouter{nodes: nodes},
		PFS:          pfs,
		RPCTimeout:   10 * time.Second,
		TimeoutLimit: 2,
		Ingest:       ing,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	data := make([]byte, 1024)
	ctx := context.Background()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("bench/%t/k%09d", batched, i)
		if !batched {
			if err := c.Put(ctx, path, data); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if err := c.PutAsync(path, data); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			if err := c.Flush(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	if batched {
		if err := c.Flush(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkIngestPuts compares synchronous puts with the batched async
// pipeline; the ratio of the two is the batching speedup:
//
//	go test ./internal/hvac -run NONE -bench IngestPuts
func BenchmarkIngestPuts(b *testing.B) {
	b.Run("sync", func(b *testing.B) { benchIngestPuts(b, false) })
	b.Run("batched", func(b *testing.B) { benchIngestPuts(b, true) })
}

// TestIngestAgeFlush: with no barrier and a tiny MaxDelay, buffered
// objects still become visible — the age timer ships partial batches.
func TestIngestAgeFlush(t *testing.T) {
	tc := newTestCluster(t, 2)
	router := hashRouter{nodes: tc.nodes}
	c := tc.ingestClient(router, &IngestConfig{MaxBatchEntries: 1024, MaxDelay: 2 * time.Millisecond}, 0)

	if err := c.PutAsync("age/one", []byte("lonely")); err != nil {
		t.Fatal(err)
	}
	owner := router.Route("age/one").Node
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := tc.servers[owner].NVMe().Get("age/one"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("age flush never delivered the buffered object")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngestReplicationRidesBatches: with replication enabled, PutAsync
// fans each object to the ring successors through the same batch
// pipeline, and WaitReplication doubles as the flush barrier.
func TestIngestReplicationRidesBatches(t *testing.T) {
	tc := newTestCluster(t, 3)
	router := hashRouter{nodes: tc.nodes}
	c := tc.ingestClient(router, &IngestConfig{MaxBatchEntries: 8, MaxDelay: time.Minute}, 2)

	const n = 40
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("repl/f%02d", i)
		if err := c.PutAsync(path, []byte(path)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitReplication(context.Background()); err != nil {
		t.Fatalf("WaitReplication: %v", err)
	}
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("repl/f%02d", i)
		for _, node := range router.Replicas(path, 2) {
			if _, err := tc.servers[node].NVMe().Get(path); err != nil {
				t.Fatalf("%s missing on replica %s after WaitReplication: %v", path, node, err)
			}
		}
	}
	if got := c.Stats().ReplicaPushes; got != n {
		t.Fatalf("ReplicaPushes=%d, want %d", got, n)
	}
}

// TestIngestReadPathReplicationRidesBatches: a PFS-fallback read with
// replication configured pushes the object to the secondary owner via
// the batch pipeline (no per-push goroutine), and WaitReplication
// flushes it.
func TestIngestReadPathReplicationRidesBatches(t *testing.T) {
	tc := newTestCluster(t, 3)
	router := hashRouter{nodes: tc.nodes}
	c := tc.ingestClient(router, &IngestConfig{MaxDelay: time.Minute}, 2)

	tc.pfs.Put("rp/file", []byte("from-pfs"))
	got, err := c.Read(context.Background(), "rp/file")
	if err != nil || string(got) != "from-pfs" {
		t.Fatalf("read: %q, %v", got, err)
	}
	if err := c.WaitReplication(context.Background()); err != nil {
		t.Fatal(err)
	}
	secondary := router.Replicas("rp/file", 2)[1]
	if _, err := tc.servers[secondary].NVMe().Get("rp/file"); err != nil {
		t.Fatalf("secondary %s missing replica after WaitReplication: %v", secondary, err)
	}
}

// TestIngestFlushReportsEntryFailure: a per-entry server-side failure
// (object larger than the node's NVMe) surfaces from Flush, and the
// failure of one entry does not block its batch-mates.
func TestIngestFlushReportsEntryFailure(t *testing.T) {
	tc := &testCluster{
		t:       t,
		network: rpc.NewInprocNetwork(),
		pfs:     storage.NewPFS(),
		servers: make(map[cluster.NodeID]*Server),
	}
	node := cluster.NodeID("node-00")
	tc.nodes = []cluster.NodeID{node}
	srv := NewServer(ServerConfig{Node: node, NVMeCapacity: 64}, tc.pfs)
	lis, err := tc.network.Listen(string(node))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	tc.servers[node] = srv

	c := tc.ingestClient(staticRouter{node: node}, &IngestConfig{MaxBatchEntries: 8, MaxDelay: time.Minute}, 0)
	if err := c.PutAsync("ok", []byte("small")); err != nil {
		t.Fatal(err)
	}
	if err := c.PutAsync("toobig", make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err == nil {
		t.Fatal("Flush swallowed a per-entry failure")
	}
	if _, err := srv.NVMe().Get("ok"); err != nil {
		t.Fatalf("failing batch-mate blocked a good entry: %v", err)
	}
	// The error was consumed; the pipeline keeps working.
	if err := c.PutAsync("after", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after consumed error: %v", err)
	}
}

// TestIngestDisabledFallsBackToSyncPut: without an IngestConfig,
// PutAsync degrades to the synchronous put — visible immediately, no
// Flush needed.
func TestIngestDisabledFallsBackToSyncPut(t *testing.T) {
	tc := newTestCluster(t, 2)
	router := hashRouter{nodes: tc.nodes}
	c := tc.ingestClient(router, nil, 0)
	if err := c.PutAsync("sync/f", []byte("direct")); err != nil {
		t.Fatal(err)
	}
	owner := router.Route("sync/f").Node
	if _, err := tc.servers[owner].NVMe().Get("sync/f"); err != nil {
		t.Fatalf("sync fallback not immediately visible: %v", err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("Flush without pipeline: %v", err)
	}
}

// TestIngestConcurrentProducers: many goroutines share one client; the
// barrier covers all of them and every object lands intact.
func TestIngestConcurrentProducers(t *testing.T) {
	tc := newTestCluster(t, 4)
	router := hashRouter{nodes: tc.nodes}
	c := tc.ingestClient(router, &IngestConfig{MaxBatchEntries: 32, MaxDelay: 500 * time.Microsecond}, 0)

	const producers, perP = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				path := fmt.Sprintf("conc/p%d-i%02d", p, i)
				if err := c.PutAsync(path, []byte(path)); err != nil {
					t.Errorf("PutAsync %s: %v", path, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for p := 0; p < producers; p++ {
		for i := 0; i < perP; i++ {
			path := fmt.Sprintf("conc/p%d-i%02d", p, i)
			owner := router.Route(path).Node
			got, err := tc.servers[owner].NVMe().Get(path)
			if err != nil || string(got) != path {
				t.Fatalf("%s on %s: %q, %v", path, owner, got, err)
			}
		}
	}
}

// TestIngestPutAsyncAfterClose: the pipeline refuses work after Close
// instead of hanging or panicking.
func TestIngestPutAsyncAfterClose(t *testing.T) {
	tc := newTestCluster(t, 1)
	c := tc.ingestClient(staticRouter{node: tc.nodes[0]}, &IngestConfig{}, 0)
	if err := c.PutAsync("pre", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.PutAsync("post", []byte("x")); err == nil {
		t.Fatal("PutAsync after Close succeeded")
	}
}
