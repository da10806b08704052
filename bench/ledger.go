package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ftcache"
	"repro/internal/hashring"
	"repro/internal/hvac"
	"repro/internal/loadctl"
	"repro/internal/memtier"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/xhash"
)

// sink keeps the compiler from discarding a measured call's result.
var sink uint64

// timeOp times fn in a single-goroutine tight loop the way testing.B
// does: fn(n) runs n operations, n grows until one run lasts at least d,
// and the last run gives ns and allocations per operation.
func timeOp(d time.Duration, fn func(n int)) (ns, allocs float64) {
	var ms runtime.MemStats
	for n := 1; ; {
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		t0 := time.Now()
		fn(n)
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&ms)
		if elapsed >= d || n >= 1<<30 {
			return float64(elapsed) / float64(n), float64(ms.Mallocs-mallocs) / float64(n)
		}
		next := n * 100
		if elapsed > 0 {
			next = int(1.2 * float64(n) * float64(d) / float64(elapsed))
		}
		n = min(max(next, n+1), n*100)
	}
}

// batchEntries is the ingest pipeline's default batch size, the divisor
// for per-batch costs in the put ledger.
const batchEntries = hvac.DefaultMaxBatchEntries

// runLedger measures each layer from outside, by timing calls into its
// public functions on the epoch_uniform path set (files paths, a power
// of two) with 4096 B bodies. d is the minimum timed duration per entry.
func runLedger(ctx context.Context, files int, d time.Duration, m metrics) error {
	ds := dataset(files)
	paths := ds.AllPaths()
	mask := len(paths) - 1
	body := ds.SampleContent(0)
	nodes := make([]hashring.NodeID, 8)
	for i := range nodes {
		nodes[i] = hashring.NodeID(fmt.Sprintf("node-%04d", i))
	}
	// entry times fn and files the cost of one operation (the timed loop
	// body covers div of them) under name, in the unit the name ends in,
	// with the allocations beside it as <name with _ns → _allocs>.
	entry := func(name string, div float64, allocs bool, fn func(n int)) {
		ns, al := timeOp(d, fn)
		if strings.HasSuffix(name, "_us") {
			ns /= 1e3
		}
		m[name] = ns / div
		if allocs {
			m[strings.Replace(name, "_ns", "_allocs", 1)] = al / div
		}
	}

	entry("xhash.xxh64_string_ns", 1, false, func(n int) {
		for i := 0; i < n; i++ {
			sink ^= xhash.XXH64String(paths[i&mask], 0)
		}
	})

	ring := hashring.NewWithNodes(hashring.Config{VirtualNodes: 100}, nodes)
	entry("hashring.owner_ns", 1, false, func(n int) {
		for i := 0; i < n; i++ {
			o, _ := ring.Owner(paths[i&mask])
			sink += uint64(len(o))
		}
	})
	entry("hashring.owners3_ns", 1, false, func(n int) {
		for i := 0; i < n; i++ {
			o, _ := ring.Owners(paths[i&mask], 3)
			sink += uint64(len(o))
		}
	})
	entry("hashring.plan_recache_us", 1, false, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(ring.PlanRecache(nodes[i%len(nodes)], paths).Lost)
		}
	})
	shrunk := ring.Clone()
	shrunk.Remove(nodes[3])
	entry("hashring.plan_rejoin_us", 1, false, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(shrunk.PlanRejoin(nodes[3], paths).Keys))
		}
	})

	router := ftcache.NewRingRecache(nodes, 100)
	entry("ftcache.route_ns", 1, false, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(router.Route(paths[i&mask]).Node))
		}
	})

	group := loadctl.NewGroup()
	fetch := loadctl.FetcherFunc(func(context.Context, string) ([]byte, error) { return body, nil })
	entry("loadctl.coalesce_do_ns", 1, true, func(n int) {
		for i := 0; i < n; i++ {
			b, _, _ := group.Do(ctx, paths[i&mask], fetch)
			sink += uint64(len(b))
		}
	})
	sketch := loadctl.NewSketch(loadctl.Config{})
	entry("loadctl.sketch_touch_ns", 1, false, func(n int) {
		for i := 0; i < n; i++ {
			if sketch.Touch(paths[i&mask]) {
				sink++
			}
		}
	})
	limiter := loadctl.NewLimiter(64, 64, 0)
	entry("loadctl.limiter_acquire_ns", 1, false, func(n int) {
		for i := 0; i < n; i++ {
			if limiter.Acquire() {
				limiter.Release()
			}
		}
	})

	entry("wire.read_req_encode_ns", 1, true, func(n int) {
		for i := 0; i < n; i++ {
			req := hvac.ReadReq{Path: paths[i&mask], Length: -1}
			sink += uint64(len(req.Marshal()))
		}
	})
	respPayload := (&hvac.ReadResp{Source: hvac.SourceNVMe, FileSize: objBytes, Data: body}).Marshal()
	entry("wire.read_resp_decode_ns", 1, true, func(n int) {
		for i := 0; i < n; i++ {
			var resp hvac.ReadResp
			if resp.Unmarshal(respPayload) == nil {
				sink += uint64(len(resp.Data))
			}
		}
	})
	batchBuf := wire.NewBuffer(batchEntries * (objBytes + 64))
	entry("wire.put_entry_encode_ns", 1, true, func(n int) {
		for i := 0; i < n; i++ {
			if i%batchEntries == 0 {
				batchBuf.Reset()
			}
			hvac.EncodePutEntry(batchBuf, paths[i&mask], body)
		}
	})
	cw := wire.NewCoalescedWriter(io.Discard, nil)
	frame := wire.Frame{Op: hvac.OpRead, Payload: respPayload}
	entry("wire.coalesced_write_ns", 1, true, func(n int) {
		for i := 0; i < n; i++ {
			frame.ID = uint64(i)
			if cw.WriteFrame(&frame) != nil {
				sink++
			}
		}
	})

	if err := ledgerRPC(ctx, entry, body); err != nil {
		return err
	}
	if err := ledgerServer(entry, paths, body); err != nil {
		return err
	}
	if err := ledgerClient(ctx, entry, paths); err != nil {
		return err
	}

	tier := memtier.New(8<<20, nil)
	for _, p := range paths[:1024] {
		tier.Admit(p, body)
	}
	entry("memtier.get_release_ns", 1, true, func(n int) {
		for i := 0; i < n; i++ {
			if lease, ok := tier.Get(paths[i&1023]); ok {
				sink += uint64(lease.Size())
				lease.Release()
			}
		}
	})
	small := memtier.New(1<<20, nil) // 256 objects, so every admit evicts
	entry("memtier.admit_ns", 1, true, func(n int) {
		for i := 0; i < n; i++ {
			if small.Admit(paths[i&mask], body) {
				sink++
			}
		}
	})

	nvme := storage.NewNVMe(0)
	pfs := storage.NewPFS()
	for _, p := range paths {
		if err := nvme.Put(p, body); err != nil {
			return err
		}
		if err := pfs.Put(p, body); err != nil {
			return err
		}
	}
	entry("storage.nvme_get_ns", 1, true, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := nvme.Get(paths[i&mask])
			sink += uint64(len(b))
		}
	})
	evicting := storage.NewNVMe(16 << 20) // 4096 objects, as on ingest_mixed
	entry("storage.nvme_put_ns", 1, true, func(n int) {
		for i := 0; i < n; i++ {
			if evicting.Put(paths[i&mask], body) != nil {
				sink++
			}
		}
	})
	batch := make([]storage.BatchEntry, batchEntries)
	entry("storage.nvme_put_batch_ns_per_entry", batchEntries, true, func(n int) {
		for i := 0; i < n; i++ {
			for k := range batch {
				batch[k] = storage.BatchEntry{Path: paths[(i*batchEntries+k)&mask], Data: body}
			}
			sink += uint64(len(evicting.PutBatch(batch)))
		}
	})
	entry("storage.pfs_get_ns", 1, false, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := pfs.Get(paths[i&mask])
			sink += uint64(len(b))
		}
	})

	// The ledger must sum to the end-to-end figure. Route contains Owner,
	// which contains the hash, so those two are not added again.
	readSum := m["ftcache.route_ns"] + m["wire.read_req_encode_ns"] + m["rpc.roundtrip_ns"] +
		m["hvac.server_read_nvme_ns"] + m["wire.read_resp_decode_ns"]
	m["ledger.read_sum_ns"] = readSum
	m["ledger.read_unattributed_share"] = 1 - ratio(readSum, m["hvac.client_read_ns"])
	putSum := m["ftcache.route_ns"] + m["wire.put_entry_encode_ns"] +
		(m["wire.coalesced_write_ns"]+m["rpc.roundtrip_ns"])/batchEntries + m["hvac.server_put_batch_ns_per_entry"]
	m["ledger.put_sum_ns"] = putSum
	m["ledger.put_unattributed_share"] = 1 - ratio(putSum, m["hvac.put_async_ns"])
	return nil
}

type entryFunc func(name string, div float64, allocs bool, fn func(n int))

// ledgerRPC times one round trip over the in-process pipe against an
// echo handler that answers 4 KiB.
func ledgerRPC(ctx context.Context, entry entryFunc, body []byte) error {
	network := rpc.NewInprocNetwork()
	lis, err := network.Listen("ledger")
	if err != nil {
		return err
	}
	srv := rpc.NewServer(rpc.HandlerFunc(func(uint16, []byte) (uint16, []byte) { return rpc.StatusOK, body }))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	conn, err := network.Dial("ledger")
	if err != nil {
		srv.Close()
		<-served
		return err
	}
	cli := rpc.NewClient(conn)
	req := make([]byte, 64)
	entry("rpc.roundtrip_ns", 1, true, func(n int) {
		for i := 0; i < n; i++ {
			resp, _, err := cli.Call(ctx, 1, req)
			if err == nil {
				sink += uint64(len(resp))
			}
		}
	})
	cli.Close()
	srv.Close()
	<-served
	return nil
}

// ledgerServer times the server's handlers with no transport.
func ledgerServer(entry entryFunc, paths []string, body []byte) error {
	pfs := storage.NewPFS()
	srv := hvac.NewServer(hvac.ServerConfig{Node: "ledger", RAMCapacity: 8 << 20}, pfs)
	defer srv.Close()
	reqs := make([][]byte, 1024)
	for i := range reqs {
		if err := srv.NVMe().Put(paths[i], body); err != nil {
			return err
		}
		reqs[i] = (&hvac.ReadReq{Path: paths[i], Length: -1}).Marshal()
	}
	handle := func(payload []byte) {
		lr := srv.HandleLeased(hvac.OpRead, payload, 0)
		sink += uint64(len(lr.Head) + len(lr.Ext))
		if lr.Release != nil {
			lr.Release()
		}
	}
	entry("hvac.server_read_nvme_ns", 1, true, func(n int) {
		for i := 0; i < n; i++ {
			handle(reqs[64+i%(len(reqs)-64)])
		}
	})
	for _, p := range paths[:64] {
		srv.RAM().Admit(p, body)
	}
	entry("hvac.server_read_ram_ns", 1, true, func(n int) {
		for i := 0; i < n; i++ {
			handle(reqs[i&63])
		}
	})
	batches := make([][]byte, 16)
	for b := range batches {
		req := hvac.PutBatchReq{Entries: make([]hvac.PutEntry, batchEntries)}
		for k := range req.Entries {
			req.Entries[k] = hvac.PutEntry{Path: paths[len(paths)/2+b*batchEntries+k], Data: body}
		}
		batches[b] = req.Marshal()
	}
	entry("hvac.server_put_batch_ns_per_entry", batchEntries, true, func(n int) {
		for i := 0; i < n; i++ {
			lr := srv.HandleLeased(hvac.OpPutBatch, batches[i%len(batches)], 0)
			sink += uint64(lr.Status)
		}
	})
	return nil
}

// ledgerClient times the two end-to-end figures the ledger sums are
// compared with, on a live warm 8-node cluster and one worker: a full
// Client.Read, and one PutAsync with a Flush every putsPerRound.
func ledgerClient(ctx context.Context, entry entryFunc, paths []string) error {
	e, _, err := boot(ctx, shape{
		cluster: core.ClusterConfig{Nodes: 8, Strategy: ftcache.KindNVMe, VirtualNodes: 100,
			RPCTimeout: 10 * time.Second, Ingest: &hvac.IngestConfig{}},
		files: len(paths),
	})
	if err != nil {
		return err
	}
	defer e.close()
	cli, mask := e.clients[0], len(paths)-1
	entry("hvac.client_read_ns", 1, true, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := cli.Read(ctx, paths[i&mask])
			sink += uint64(len(b))
		}
	})
	obj := make([]byte, objBytes)
	var failed error
	entry("hvac.put_async_ns", 1, true, func(n int) {
		for i := 0; i < n; i++ {
			if err := cli.PutAsync(paths[i&mask], obj); err != nil {
				failed = err
			}
			if i%putsPerRound == putsPerRound-1 || i == n-1 {
				if err := cli.Flush(ctx); err != nil {
					failed = err
				}
			}
		}
	})
	return failed
}
