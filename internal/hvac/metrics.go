package hvac

import (
	"sync"

	"repro/internal/shardcache"
	"repro/internal/telemetry"
)

// clientMetrics are the client series that no per-client counter
// holds, shared by every HVAC client in the process. What a read was
// served from, how long it took and what it cost in failovers, hedges
// and pushes lives in each client's ClientStats and Latency, the one
// home of those counts. Handles resolve once; the read path never
// touches the registry.
type clientMetrics struct {
	aborts *telemetry.Counter // reads terminated by RouteAbort (NoFT)

	// Retry / rejoin series (zero until a connection fails / Rejoin is used).
	retries         *telemetry.Counter // conn-class attempts retried with backoff
	retryExhausted  *telemetry.Counter // retry budgets exhausted (became evidence)
	rejoins         *telemetry.Counter // node rejoins completed
	rejoinWarmFiles *telemetry.Counter // objects warmed onto rejoining nodes
	rejoinWarmBytes *telemetry.Counter // bytes warmed onto rejoining nodes

	// Ingest series (zero until a client writes asynchronously: PutAsync,
	// a replica copy or a hot-object copy).
	ingestEntries      *telemetry.Counter    // objects accepted by PutAsync / riding batches
	ingestBatches      *telemetry.Counter    // batches sealed
	ingestBatchEntries *telemetry.Histogram  // batch size (entries) at seal
	ingestFlush        [3]*telemetry.Counter // batches sealed, indexed by flush reason
	ingestErrors       *telemetry.Counter    // objects whose batched delivery failed
}

var (
	cliMetricsOnce sync.Once
	cliMetricsInst *clientMetrics
)

func cliMetrics() *clientMetrics {
	cliMetricsOnce.Do(func() {
		reg := telemetry.Default()
		cliMetricsInst = &clientMetrics{
			aborts: reg.Counter("ftc_client_aborts_total"),

			retries:         reg.Counter("ftc_client_retry_attempts_total"),
			retryExhausted:  reg.Counter("ftc_client_retry_exhausted_total"),
			rejoins:         reg.Counter("ftc_client_rejoins_total"),
			rejoinWarmFiles: reg.Counter("ftc_client_rejoin_warm_files_total"),
			rejoinWarmBytes: reg.Counter("ftc_client_rejoin_warm_bytes_total"),

			ingestEntries:      reg.Counter("ftc_client_ingest_entries_total"),
			ingestBatches:      reg.Counter("ftc_client_ingest_batches_total"),
			ingestBatchEntries: reg.Histogram("ftc_client_ingest_batch_entries"),
			ingestFlush: [...]*telemetry.Counter{
				flushReasonSize: reg.Counter("ftc_client_ingest_flush_size_total"),
				flushReasonAge:  reg.Counter("ftc_client_ingest_flush_age_total"),
				flushReasonSync: reg.Counter("ftc_client_ingest_flush_sync_total"),
			},
			ingestErrors: reg.Counter("ftc_client_ingest_errors_total"),
		}
	})
	return cliMetricsInst
}

// registerTelemetry publishes a server's observables into the Default
// registry, labeled by node so an in-process fleet stays separable.
// Everything is exported through scrape-time callbacks over the atomic
// counters the request path already maintains — zero added cost per
// request — and every callback is a lock-free read, so a scrape never
// contends with the serve path. Re-registration after a node revive
// rebinds the series to the fresh instance (latest wins).
func (s *Server) registerTelemetry() {
	reg := telemetry.Default()
	node := string(s.cfg.Node)
	nvme, mover := s.nvme, s.mover

	reg.CounterFunc("ftc_server_reads_total", s.reads.Load, "node", node)
	reg.CounterFunc("ftc_server_pfs_fallbacks_total", s.pfsFallbacks.Load, "node", node)
	reg.CounterFunc("ftc_server_batch_puts_total", s.batchPuts.Load, "node", node)
	reg.CounterFunc("ftc_server_batch_put_entries_total", s.batchEntries.Load, "node", node)
	reg.CounterFunc("ftc_server_batch_sheds_total", s.batchSheds.Load, "node", node)
	if s.limiter != nil {
		reg.CounterFunc("ftc_server_sheds_total", s.limiter.Sheds, "node", node)
		reg.GaugeFunc("ftc_server_admission_inflight", s.limiter.Inflight, "node", node)
	}

	reg.CounterFunc("ftc_server_nvme_hits_total", func() int64 { return nvme.Snapshot().Hits }, "node", node)
	reg.CounterFunc("ftc_server_nvme_misses_total", func() int64 { return nvme.Snapshot().Misses }, "node", node)
	reg.CounterFunc("ftc_server_nvme_evictions_total", func() int64 { return nvme.Snapshot().Evictions }, "node", node)
	reg.CounterFunc("ftc_server_nvme_spills_total", func() int64 { return nvme.Snapshot().Spills }, "node", node)
	reg.CounterFunc("ftc_server_nvme_fill_rejected_total", func() int64 { return nvme.Snapshot().Refused }, "node", node)
	reg.GaugeFunc("ftc_server_nvme_bytes", func() int64 { return nvme.Snapshot().Bytes }, "node", node)
	reg.GaugeFunc("ftc_server_nvme_objects", func() int64 { return nvme.Snapshot().Objects }, "node", node)

	if ram := s.ram; ram != nil {
		reg.CounterFunc("ftc_server_ram_hits_total", func() int64 { return ram.Snapshot().Hits }, "node", node)
		reg.CounterFunc("ftc_server_ram_misses_total", func() int64 { return ram.Snapshot().Misses }, "node", node)
		reg.CounterFunc("ftc_server_ram_admits_total", func() int64 { _, _, a, _, _, _ := ram.Counters(); return a }, "node", node)
		reg.CounterFunc("ftc_server_ram_admit_rejected_total", func() int64 { return ram.Snapshot().Refused }, "node", node)
		reg.CounterFunc("ftc_server_ram_evictions_total", func() int64 { return ram.Snapshot().Evictions }, "node", node)
		reg.CounterFunc("ftc_server_ram_demotions_total", func() int64 { _, _, _, _, d, _ := ram.Counters(); return d }, "node", node)
		reg.CounterFunc("ftc_server_ram_invalidations_total", func() int64 { _, _, _, _, _, i := ram.Counters(); return i }, "node", node)
		reg.CounterFunc("ftc_server_ram_served_total", s.ramServed.Load, "node", node)
		reg.GaugeFunc("ftc_server_ram_bytes", func() int64 { return ram.Snapshot().Bytes }, "node", node)
		reg.GaugeFunc("ftc_server_ram_objects", func() int64 { return ram.Snapshot().Objects }, "node", node)
		reg.GaugeFunc("ftc_server_ram_leases", ram.ActiveLeases, "node", node)
	}

	reg.CounterFunc("ftc_server_fills_total", func() int64 { e, _ := mover.Counters(); return e }, "node", node)
	reg.CounterFunc("ftc_server_fill_drops_total", func() int64 { _, d := mover.Counters(); return d }, "node", node)
	reg.CounterFunc("ftc_server_fill_errors_total", mover.fillErrs.Load, "node", node)

	reg.RegisterDebug("server:"+node, s.debugSnapshot)
}

// debugSnapshot is this server's section of /debug/ftcache: the state
// that no ftc_server_* series carries (the per-shard bytes, the last
// fill error, the unresponsive switch, the admission limit and its
// lifetime admitted/queued counts, each tier's capacity).
func (s *Server) debugSnapshot() any {
	nvme := s.nvme.Snapshot()
	_, lastErr := s.mover.FillStats()
	snap := map[string]any{
		"node":            string(s.cfg.Node),
		"shard_bytes":     nvme.ShardBytes,
		"last_fill_error": lastErr,
		"unresponsive":    s.Unresponsive(),
	}
	if s.limiter != nil {
		admitted, queued, _ := s.limiter.Stats()
		snap["admission"] = map[string]any{
			"limit":    s.cfg.AdmissionLimit,
			"admitted": admitted,
			"queued":   queued,
		}
	}
	snap["tiers"] = s.tierSnapshot(nvme)
	return snap
}

// tierSnapshot lists the serving tiers in paper order (RAM → NVMe →
// PFS) with the one fact about each that no ftc_server_* series
// carries, its capacity; ftcctl tiers joins them with /metrics for the
// counts. The PFS is the shared backstop, with no node-local capacity.
func (s *Server) tierSnapshot(nvme shardcache.Snapshot) []map[string]any {
	tiers := make([]map[string]any, 0, 3)
	if s.ram != nil {
		tiers = append(tiers, map[string]any{"tier": "ram", "capacity": s.ram.Snapshot().Capacity})
	}
	return append(tiers, map[string]any{"tier": "nvme", "capacity": nvme.Capacity}, map[string]any{"tier": "pfs"})
}
