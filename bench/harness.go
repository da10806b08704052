package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ftcache"
	"repro/internal/hvac"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// objBytes is the size of every dataset file and every ingested object.
const objBytes = 4096

// workers is W, the number of closed-loop load goroutines: a worker
// issues its next request only when the previous one returned. More
// workers than cores would time the Go scheduler, not the cache.
func workers() int { return min(runtime.NumCPU(), 4) }

// shape is what distinguishes one workload's cluster from another's.
type shape struct {
	cluster      core.ClusterConfig
	files        int           // dataset size; 0 = nothing staged (ingest)
	pfsDelay     time.Duration // PFS.SetReadDelay, applied after warming
	sharedClient bool          // all workers behind one hvac.Client
}

// env is one booted cluster with its clients and the generator's
// precomputed tables. Everything the timed loops touch is materialised
// here so the generator neither formats nor allocates while timing.
type env struct {
	cluster *core.Cluster
	files   int            // staged dataset size
	dialed  []*hvac.Client // every client the cluster handed out
	clients []*hvac.Client // indexed by worker (the one client repeated when shared)
	rings   []*ftcache.RingRecache
	paths   []string
	prefix  []uint64 // first 8 content bytes of every file
	golden  [][]byte // full content of every 64th file (index i>>6 for i&63 == 63)
}

// boot performs the set-up a user pays before the first read: cluster
// boot, Stage, WarmCache, FlushMovers and the client dials. It returns
// how long that took.
func boot(ctx context.Context, sh shape) (*env, time.Duration, error) {
	t0 := time.Now()
	c, err := core.NewCluster(sh.cluster)
	if err != nil {
		return nil, 0, err
	}
	e := &env{cluster: c, files: sh.files}
	ds := dataset(sh.files)
	if sh.files > 0 {
		if _, err := c.Stage(ds); err != nil {
			e.close()
			return nil, 0, err
		}
		if err := c.WarmCache(ds); err != nil {
			e.close()
			return nil, 0, err
		}
		c.FlushMovers()
	}
	nClients := workers()
	if sh.sharedClient {
		nClients = 1
	}
	for i := 0; i < nClients; i++ {
		cli, router, err := c.NewClient()
		if err != nil {
			e.close()
			return nil, 0, err
		}
		e.dialed = append(e.dialed, cli)
		e.rings = append(e.rings, router.(*ftcache.RingRecache))
		for _, n := range c.Nodes() {
			if err := cli.Ping(ctx, n); err != nil {
				e.close()
				return nil, 0, fmt.Errorf("dial %s: %w", n, err)
			}
		}
	}
	for w := 0; w < workers(); w++ {
		e.clients = append(e.clients, e.dialed[w%len(e.dialed)])
	}
	setup := time.Since(t0)
	c.PFS().SetReadDelay(sh.pfsDelay)
	return e, setup, nil
}

func dataset(files int) workload.Dataset {
	return workload.Dataset{Name: "bench", Prefix: "bench", NumFiles: files, FileBytes: objBytes}
}

// fillTables materialises the paths and the expected content. It is
// generator work, not program set-up, so it is outside setup_s.
func (e *env) fillTables() {
	ds := dataset(e.files)
	e.paths = ds.AllPaths()
	e.prefix = make([]uint64, e.files)
	e.golden = make([][]byte, e.files>>6)
	for i := range e.paths {
		body := ds.SampleContent(i)
		e.prefix[i] = binary.LittleEndian.Uint64(body)
		if i&63 == 63 {
			e.golden[i>>6] = body
		}
	}
}

// ok checks one read of file i: length and the first 8 content bytes on
// every read, and every byte on the files that carry a golden copy (1 in
// 64).
func (e *env) ok(i int, got []byte) bool {
	if len(got) != objBytes || binary.LittleEndian.Uint64(got) != e.prefix[i] {
		return false
	}
	return i&63 != 63 || bytes.Equal(got, e.golden[i>>6])
}

// close tears the cluster down. The telemetry registry keeps each
// server's scrape callbacks (latest registration wins per node name),
// and through them the server's caches and the PFS, so those are emptied
// too: a closed cluster must not count in the next workload's live heap.
func (e *env) close() {
	for _, cli := range e.dialed {
		cli.Close()
	}
	e.cluster.Close()
	for _, n := range e.cluster.Nodes() {
		srv := e.cluster.Server(n)
		srv.NVMe().Clear()
		if ram := srv.RAM(); ram != nil {
			ram.Clear()
		}
	}
	for _, path := range dataset(e.files).AllPaths() {
		e.cluster.PFS().Delete(path)
	}
}

// setupRuns is the least number of times a run boots its cluster when
// it reports setup_s, and setupBudget how long it keeps booting a
// cluster that comes up in milliseconds. setup_s is the median: a single
// boot is the least repeatable thing the benchmark measures.
const (
	setupRuns   = 5
	setupBudget = time.Second
	setupMax    = 256
)

// bootMedian boots the shape at least n times (exactly once when n is
// 1), keeps the last cluster, and returns the median set-up time.
func bootMedian(ctx context.Context, sh shape, n int) (*env, float64, error) {
	var times []float64
	var total time.Duration
	for {
		runtime.GC()
		e, d, err := boot(ctx, sh)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		total += d
		if len(times) >= n && (n == 1 || total >= setupBudget || len(times) >= setupMax) {
			e.fillTables()
			return e, median(times), nil
		}
		e.close()
	}
}

// counts is a snapshot of every cumulative counter the per-layer
// metrics are deltas of. Telemetry and runtime counters are
// process-wide, so a workload only ever reports after − before.
type counts map[string]float64

func (e *env) snapshot() counts {
	c := counts{}
	for _, cli := range e.dialed {
		s := cli.Stats()
		c["served_ram"] += float64(s.ServedRAM)
		c["served_nvme"] += float64(s.ServedNVMe)
		c["served_pfs"] += float64(s.ServedPFS)
		c["direct_pfs"] += float64(s.DirectPFS)
		c["timeouts"] += float64(s.Timeouts)
		c["failover_reads"] += float64(s.FailoverReads)
		c["coalesced_reads"] += float64(s.CoalescedReads)
		c["hedged_reads"] += float64(s.HedgedReads)
		c["hedge_wins"] += float64(s.HedgeWins)
		c["hot_pushes"] += float64(s.HotPushes)
		c["shed_redirects"] += float64(s.ShedRedirects)
	}
	for _, n := range e.cluster.Nodes() {
		srv := e.cluster.Server(n)
		c["node_reads/"+string(n)] = float64(srv.Reads())
		h, m, ev := srv.NVMe().Counters()
		c["nvme_hits"] += float64(h)
		c["nvme_misses"] += float64(m)
		c["nvme_evictions"] += float64(ev)
		c["nvme_spills"] += float64(srv.NVMe().Spills())
		if ram := srv.RAM(); ram != nil {
			h, m, ad, ev, de, _ := ram.Counters()
			c["ram_hits"] += float64(h)
			c["ram_misses"] += float64(m)
			c["ram_admits"] += float64(ad)
			c["ram_evictions"] += float64(ev)
			c["ram_demotions"] += float64(de)
			c["ram_leases"] += float64(ram.ActiveLeases())
		}
		if lim := srv.Limiter(); lim != nil {
			ad, qu, sh := lim.Stats()
			c["lim_admitted"] += float64(ad)
			c["lim_queued"] += float64(qu)
			c["lim_shed"] += float64(sh)
		}
		enq, drop := srv.Mover().Counters()
		c["mover_enqueued"] += float64(enq)
		c["mover_dropped"] += float64(drop)
	}
	reads, readBytes, _ := e.cluster.PFS().Counters()
	c["pfs_reads"] = float64(reads)
	c["pfs_read_bytes"] = float64(readBytes)
	reg := telemetry.Default()
	c["rpc_flushes"] = float64(reg.Counter("ftc_rpc_client_flushes_total").Load())
	c["rpc_frames"] = float64(reg.Counter("ftc_rpc_client_frames_total").Load())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["mallocs"] = float64(ms.Mallocs)
	c["alloc_bytes"] = float64(ms.TotalAlloc)
	c["gc_cycles"] = float64(ms.NumGC)
	c["gc_pause_ns"] = float64(ms.PauseTotalNs)
	return c
}

// sub returns after − before, key by key.
func (after counts) sub(before counts) counts {
	d := counts{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounts turns a counter delta over ops operations into the
// per-workload per-layer metrics.
func layerCounts(d counts, ops, puts float64, m metrics) {
	for _, k := range []string{"served_ram", "served_nvme", "served_pfs", "direct_pfs", "timeouts",
		"failover_reads", "coalesced_reads", "hedged_reads", "hedge_wins", "hot_pushes",
		"shed_redirects", "mover_enqueued", "mover_dropped"} {
		m["hvac."+k] = d[k]
	}
	var total, top float64
	for k, v := range d {
		if strings.HasPrefix(k, "node_reads/") {
			total += v
			top = max(top, v)
		}
	}
	m["hvac.max_node_read_share"] = ratio(top, total)
	m["storage.nvme_hit_ratio"] = ratio(d["nvme_hits"], d["nvme_hits"]+d["nvme_misses"])
	m["storage.nvme_evictions"] = d["nvme_evictions"]
	m["storage.nvme_spills"] = d["nvme_spills"]
	m["storage.pfs_reads"] = d["pfs_reads"]
	m["storage.pfs_read_bytes"] = d["pfs_read_bytes"]
	m["memtier.hit_ratio"] = ratio(d["ram_hits"], d["ram_hits"]+d["ram_misses"])
	m["memtier.admits"] = d["ram_admits"]
	m["memtier.evictions"] = d["ram_evictions"]
	m["memtier.demotions"] = d["ram_demotions"]
	m["loadctl.limiter_admitted"] = d["lim_admitted"]
	m["loadctl.limiter_queued"] = d["lim_queued"]
	m["loadctl.limiter_shed"] = d["lim_shed"]
	m["rpc.client_flushes"] = d["rpc_flushes"]
	m["rpc.client_frames"] = d["rpc_frames"]
	m["rpc.frames_per_flush"] = ratio(d["rpc_frames"], d["rpc_flushes"])
	m["rpc.writes_per_put"] = ratio(d["rpc_flushes"], puts)
	m["runtime.allocs_per_op"] = ratio(d["mallocs"], ops)
	m["runtime.alloc_bytes_per_op"] = ratio(d["alloc_bytes"], ops)
	m["runtime.gc_cycles"] = d["gc_cycles"]
	m["runtime.gc_pause_ms"] = d["gc_pause_ns"] / 1e6
}

// liveHeapMiB is HeapAlloc after a forced GC, less the harness's own
// sample buffers, so the figure is the program's and not the
// benchmark's.
func liveHeapMiB(sampleBytes int) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (float64(ms.HeapAlloc) - float64(sampleBytes)) / (1 << 20)
}

// goroutinesSettle reports whether the goroutine count came back to
// base within the grace period (connection readers and hedge legs need
// a few milliseconds to observe a closed cluster).
func goroutinesSettle(base int) bool {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}
