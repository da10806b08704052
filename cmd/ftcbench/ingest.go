package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ftcache"
	"repro/internal/hvac"
	"repro/internal/telemetry"
)

// ingestConfig parameterizes the write-path benchmark: a sustained
// ingest stream from many clients into a large simulated cluster, run
// once with synchronous per-object puts and once through the batched
// async pipeline, so the speedup is a single command:
//
//	ftcbench -ingest -duration 3s
type ingestConfig struct {
	nodes      int           // simulated server nodes (ingest default: 64)
	clients    int           // concurrent writer clients
	objBytes   int64         // bytes per ingested object
	duration   time.Duration // measurement window per phase
	seed       int64
	batch      int    // batched phase: max entries per wire batch
	flushEvery int    // batched phase: ops between explicit Flush barriers
	out        string // JSON result path
}

// ingestResult is one phase's measurement, JSON-shaped for
// results/BENCH_ingest.json.
type ingestResult struct {
	Mode        string  `json:"mode"`
	Puts        int64   `json:"puts"`
	Seconds     float64 `json:"seconds"`
	PutsPerSec  float64 `json:"puts_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P99Metric   string  `json:"p99_metric"` // what the quantiles measure
	Writes      int64   `json:"client_writes"`
	WritesPerOp float64 `json:"writes_per_op"` // socket writes per put (syscall proxy)
	FramesPerWr float64 `json:"frames_per_write"`
}

type ingestReport struct {
	Bench     string        `json:"bench"`
	Nodes     int           `json:"nodes"`
	Clients   int           `json:"clients"`
	ObjBytes  int64         `json:"obj_bytes"`
	Batch     int           `json:"batch_entries"`
	Sync      ingestResult  `json:"sync"`
	Batched   ingestResult  `json:"batched"`
	Speedup   float64       `json:"speedup"`
	WriteAmpl float64       `json:"write_reduction"` // sync writes/op over batched writes/op
	Duration  time.Duration `json:"-"`
}

func runIngest(cfg ingestConfig) error {
	if cfg.nodes < 1 || cfg.clients < 1 {
		return fmt.Errorf("-nodes and -clients must be >= 1")
	}
	if cfg.batch <= 0 {
		cfg.batch = 64
	}
	if cfg.flushEvery <= 0 {
		cfg.flushEvery = 256
	}
	fmt.Printf("ingest: %d nodes, %d clients, %d B objects, %s/phase, batch=%d flushevery=%d\n",
		cfg.nodes, cfg.clients, cfg.objBytes, cfg.duration, cfg.batch, cfg.flushEvery)

	syncRes, err := runIngestPhase(cfg, nil)
	if err != nil {
		return fmt.Errorf("sync phase: %w", err)
	}
	batchedRes, err := runIngestPhase(cfg, &hvac.IngestConfig{MaxBatchEntries: cfg.batch})
	if err != nil {
		return fmt.Errorf("batched phase: %w", err)
	}

	rep := ingestReport{
		Bench:    "ingest",
		Nodes:    cfg.nodes,
		Clients:  cfg.clients,
		ObjBytes: cfg.objBytes,
		Batch:    cfg.batch,
		Sync:     syncRes,
		Batched:  batchedRes,
	}
	if syncRes.PutsPerSec > 0 {
		rep.Speedup = batchedRes.PutsPerSec / syncRes.PutsPerSec
	}
	if batchedRes.WritesPerOp > 0 {
		rep.WriteAmpl = syncRes.WritesPerOp / batchedRes.WritesPerOp
	}

	for _, r := range []ingestResult{syncRes, batchedRes} {
		fmt.Printf("  %-8s puts=%-9d puts/sec=%-10.0f p99(%s)=%.2fms writes/op=%.3f\n",
			r.Mode, r.Puts, r.PutsPerSec, r.P99Metric, r.P99Ms, r.WritesPerOp)
	}
	fmt.Printf("  speedup      %.2fx\n", rep.Speedup)
	fmt.Printf("  write-reduction %.1fx fewer socket writes per put\n", rep.WriteAmpl)

	if cfg.out != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.out), 0o755); err != nil {
			return err
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  [wrote %s]\n", cfg.out)
	}
	return nil
}

// runIngestPhase boots a fresh cluster and drives the write path for the
// window. With ingest == nil every put is a synchronous RPC round trip;
// with a config the clients stream PutAsync and pay only periodic Flush
// barriers. The latency histogram measures what a caller actually waits
// on in each mode: the put itself (sync) or the batch commit (batched).
func runIngestPhase(cfg ingestConfig, ingest *hvac.IngestConfig) (ingestResult, error) {
	res := ingestResult{Mode: "sync", P99Metric: "put"}
	if ingest != nil {
		res.Mode, res.P99Metric = "batched", "flush"
	}
	c, err := core.NewCluster(core.ClusterConfig{
		Nodes:        cfg.nodes,
		Strategy:     ftcache.KindNVMe,
		NVMeCapacity: 16 << 20, // bound node memory; ingest may evict, never block
		// The failure-detector TTL is not the measurement here: under
		// full write saturation an individual batch RPC may queue past
		// the 500ms production default, which would abort the phase.
		RPCTimeout: 10 * time.Second,
		Ingest:     ingest,
	})
	if err != nil {
		return res, err
	}
	defer c.Close()

	flushC := telemetry.Default().Counter("ftc_rpc_client_flushes_total")
	framesC := telemetry.Default().Counter("ftc_rpc_client_frames_total")
	flushes0, frames0 := flushC.Load(), framesC.Load()

	var (
		puts atomic.Int64
		mu   sync.Mutex
		lats []int64 // ns; sync: per put, batched: per flush barrier
		wg   sync.WaitGroup
	)
	record := func(local []int64) {
		mu.Lock()
		lats = append(lats, local...)
		mu.Unlock()
	}
	stop := make(chan struct{})
	errCh := make(chan error, cfg.clients)
	data := make([]byte, cfg.objBytes)
	for i := range data {
		data[i] = byte(i)
	}
	start := time.Now()
	for w := 0; w < cfg.clients; w++ {
		cli, _, err := c.NewClient()
		if err != nil {
			return res, err
		}
		defer cli.Close()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]int64, 0, 1<<14)
			defer func() { record(local) }()
			ctx := context.Background()
			seq := 0
			for {
				select {
				case <-stop:
					if ingest != nil {
						_ = cli.Flush(ctx)
					}
					return
				default:
				}
				path := fmt.Sprintf("%s/c%02d/k%09d", res.Mode, w, seq)
				seq++
				if ingest == nil {
					t0 := time.Now()
					if err := cli.Put(ctx, path, data); err != nil {
						errCh <- fmt.Errorf("client %d put: %w", w, err)
						return
					}
					local = append(local, int64(time.Since(t0)))
					puts.Add(1)
					continue
				}
				if err := cli.PutAsync(path, data); err != nil {
					errCh <- fmt.Errorf("client %d putasync: %w", w, err)
					return
				}
				puts.Add(1)
				if seq%cfg.flushEvery == 0 {
					t0 := time.Now()
					if err := cli.Flush(ctx); err != nil {
						errCh <- fmt.Errorf("client %d flush: %w", w, err)
						return
					}
					local = append(local, int64(time.Since(t0)))
				}
			}
		}(w)
	}
	time.Sleep(cfg.duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return res, err
	default:
	}

	res.Puts = puts.Load()
	res.Seconds = elapsed.Seconds()
	res.PutsPerSec = float64(res.Puts) / elapsed.Seconds()
	res.Writes = flushC.Load() - flushes0
	if res.Puts > 0 {
		res.WritesPerOp = float64(res.Writes) / float64(res.Puts)
	}
	if res.Writes > 0 {
		res.FramesPerWr = float64(framesC.Load()-frames0) / float64(res.Writes)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		res.P50Ms = float64(lats[n/2]) / 1e6
		res.P99Ms = float64(lats[n*99/100]) / 1e6
	}
	return res, nil
}
