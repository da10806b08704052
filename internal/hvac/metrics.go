package hvac

import (
	"sync"

	"repro/internal/shardcache"
	"repro/internal/telemetry"
)

// clientMetrics are shared by every HVAC client in the process: in a
// training job each rank runs one client and the aggregate over ranks
// is the paper-relevant signal (per-client detail stays available via
// Client.Stats). Handles resolve once; the read path never touches the
// registry.
type clientMetrics struct {
	reads       *telemetry.Counter   // completed Read/ReadRange calls (any outcome)
	readLatency *telemetry.Histogram // end-to-end read latency incl. failover
	servedRAM   *telemetry.Counter   // remote reads served from the owner's RAM tier
	servedNVMe  *telemetry.Counter   // remote reads served from owner NVMe (cache hit)
	servedPFS   *telemetry.Counter   // remote reads the server fell back to PFS for (cache miss)
	directPFS   *telemetry.Counter   // client-side PFS bypass reads (redirection strategy)
	timeouts    *telemetry.Counter   // detection-timer expiries observed
	failovers   *telemetry.Counter   // reads that needed more than one attempt
	replicaPush *telemetry.Counter   // replica writes issued
	aborts      *telemetry.Counter   // reads terminated by RouteAbort (NoFT)

	// Retry / rejoin series (zero unless Retry is set / Rejoin is used).
	retries         *telemetry.Counter // conn-class attempts retried with backoff
	retryExhausted  *telemetry.Counter // retry budgets exhausted (became evidence)
	rejoins         *telemetry.Counter // node rejoins completed
	rejoinWarmFiles *telemetry.Counter // objects warmed onto rejoining nodes
	rejoinWarmBytes *telemetry.Counter // bytes warmed onto rejoining nodes

	// Ingest series (zero unless ClientConfig.Ingest is set).
	ingestEntries      *telemetry.Counter   // objects accepted by PutAsync / riding batches
	ingestBatches      *telemetry.Counter   // batches sealed
	ingestBatchEntries *telemetry.Histogram // batch size (entries) at seal
	ingestFlushSize    *telemetry.Counter   // batches sealed by the size/bytes bound
	ingestFlushAge     *telemetry.Counter   // batches sealed by the age timer
	ingestFlushSync    *telemetry.Counter   // batches sealed by an explicit barrier
	ingestErrors       *telemetry.Counter   // objects whose batched delivery failed

	// Load-control series (all zero unless ClientConfig.LoadControl set).
	coalesced     *telemetry.Counter // reads served by joining another caller's flight
	hedges        *telemetry.Counter // hedge legs launched
	hedgeWins     *telemetry.Counter // reads won by the hedged leg
	hotPush       *telemetry.Counter // hot-object replica pushes issued
	shedRedirects *telemetry.Counter // overload sheds redirected to replica/PFS
}

var (
	cliMetricsOnce sync.Once
	cliMetricsInst *clientMetrics
)

func cliMetrics() *clientMetrics {
	cliMetricsOnce.Do(func() {
		reg := telemetry.Default()
		cliMetricsInst = &clientMetrics{
			reads:       reg.Counter("ftc_client_reads_total"),
			readLatency: reg.Histogram("ftc_client_read_latency_seconds"),
			servedRAM:   reg.Counter("ftc_client_served_ram_total"),
			servedNVMe:  reg.Counter("ftc_client_served_nvme_total"),
			servedPFS:   reg.Counter("ftc_client_served_pfs_total"),
			directPFS:   reg.Counter("ftc_client_direct_pfs_total"),
			timeouts:    reg.Counter("ftc_client_timeouts_total"),
			failovers:   reg.Counter("ftc_client_failover_reads_total"),
			replicaPush: reg.Counter("ftc_client_replica_pushes_total"),
			aborts:      reg.Counter("ftc_client_aborts_total"),

			retries:         reg.Counter("ftc_client_retry_attempts_total"),
			retryExhausted:  reg.Counter("ftc_client_retry_exhausted_total"),
			rejoins:         reg.Counter("ftc_client_rejoins_total"),
			rejoinWarmFiles: reg.Counter("ftc_client_rejoin_warm_files_total"),
			rejoinWarmBytes: reg.Counter("ftc_client_rejoin_warm_bytes_total"),

			ingestEntries:      reg.Counter("ftc_client_ingest_entries_total"),
			ingestBatches:      reg.Counter("ftc_client_ingest_batches_total"),
			ingestBatchEntries: reg.Histogram("ftc_client_ingest_batch_entries"),
			ingestFlushSize:    reg.Counter("ftc_client_ingest_flush_size_total"),
			ingestFlushAge:     reg.Counter("ftc_client_ingest_flush_age_total"),
			ingestFlushSync:    reg.Counter("ftc_client_ingest_flush_sync_total"),
			ingestErrors:       reg.Counter("ftc_client_ingest_errors_total"),

			coalesced:     reg.Counter("ftc_client_coalesced_reads_total"),
			hedges:        reg.Counter("ftc_client_hedged_reads_total"),
			hedgeWins:     reg.Counter("ftc_client_hedge_wins_total"),
			hotPush:       reg.Counter("ftc_client_hot_pushes_total"),
			shedRedirects: reg.Counter("ftc_client_shed_redirects_total"),
		}
		m := cliMetricsInst
		reg.RegisterDebug("ingest", func() any {
			return map[string]any{
				"entries":     m.ingestEntries.Load(),
				"batches":     m.ingestBatches.Load(),
				"flush_size":  m.ingestFlushSize.Load(),
				"flush_age":   m.ingestFlushAge.Load(),
				"flush_sync":  m.ingestFlushSync.Load(),
				"errors":      m.ingestErrors.Load(),
				"batch_sizes": m.ingestBatchEntries.Snapshot(),
			}
		})
		reg.RegisterDebug("rejoin", func() any {
			return map[string]any{
				"retry_attempts":    m.retries.Load(),
				"retry_exhausted":   m.retryExhausted.Load(),
				"rejoins":           m.rejoins.Load(),
				"rejoin_warm_files": m.rejoinWarmFiles.Load(),
				"rejoin_warm_bytes": m.rejoinWarmBytes.Load(),
			}
		})
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
	reg.GaugeFunc("ftc_server_nvme_bytes", func() int64 { return nvme.Snapshot().Bytes }, "node", node)
	reg.GaugeFunc("ftc_server_nvme_objects", func() int64 { return nvme.Snapshot().Objects }, "node", node)

	if ram := s.ram; ram != nil {
		reg.CounterFunc("ftc_server_ram_hits_total", func() int64 { return ram.Snapshot().Hits }, "node", node)
		reg.CounterFunc("ftc_server_ram_misses_total", func() int64 { return ram.Snapshot().Misses }, "node", node)
		reg.CounterFunc("ftc_server_ram_admits_total", func() int64 { _, _, a, _, _, _ := ram.Counters(); return a }, "node", node)
		reg.CounterFunc("ftc_server_ram_admit_rejected_total", ram.Rejected, "node", node)
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
	reg.CounterFunc("ftc_server_inline_fills_total", func() int64 { i, _, _ := mover.FillStats(); return i }, "node", node)
	reg.CounterFunc("ftc_server_fill_errors_total", func() int64 { _, e, _ := mover.FillStats(); return e }, "node", node)
	reg.GaugeFunc("ftc_server_mover_queue_depth", mover.QueueDepth, "node", node)

	reg.RegisterDebug("server:"+node, s.debugSnapshot)
}

// debugSnapshot is this server's section of /debug/ftcache.
func (s *Server) debugSnapshot() any {
	nvme := s.nvme.Snapshot()
	enq, drop := s.mover.Counters()
	inline, fillErrs, lastErr := s.mover.FillStats()
	snap := map[string]any{
		"node":            string(s.cfg.Node),
		"nvme_objects":    nvme.Objects,
		"nvme_bytes":      nvme.Bytes,
		"nvme_capacity":   nvme.Capacity,
		"nvme_hits":       nvme.Hits,
		"nvme_misses":     nvme.Misses,
		"nvme_evictions":  nvme.Evictions,
		"nvme_spills":     nvme.Spills,
		"shard_bytes":     nvme.ShardBytes,
		"pfs_fallbacks":   s.pfsFallbacks.Load(),
		"fills_enqueued":  enq,
		"fills_dropped":   drop,
		"fills_inline":    inline,
		"fill_errors":     fillErrs,
		"last_fill_error": lastErr,
		"queue_depth":     s.mover.QueueDepth(),
		"batch_puts":      s.batchPuts.Load(),
		"batch_entries":   s.batchEntries.Load(),
		"batch_sheds":     s.batchSheds.Load(),
		"unresponsive":    s.Unresponsive(),
	}
	if s.limiter != nil {
		admitted, queued, shed := s.limiter.Stats()
		snap["admission"] = map[string]any{
			"limit":    s.cfg.AdmissionLimit,
			"inflight": s.limiter.Inflight(),
			"admitted": admitted,
			"queued":   queued,
			"shed":     shed,
		}
	}
	snap["tiers"] = s.tierSnapshot(nvme)
	return snap
}

// tierSnapshot is the per-tier breakdown of /debug/ftcache's storage
// section: capacity, occupancy, and hit ratio for each serving tier in
// paper order (RAM → NVMe → PFS), plus the admissions the RAM tier
// refused — occupancy far below capacity with nothing rejected is a tier
// not being offered objects; a full tier rejecting is one defending its
// residents. The PFS tier is the shared backstop —
// it has no node-local capacity, and every read it serves is by
// definition a miss of the tiers above, so its "hit ratio" is the
// fallback fraction.
func (s *Server) tierSnapshot(nvme shardcache.Snapshot) []map[string]any {
	row := func(tier string, c shardcache.Snapshot) map[string]any {
		return map[string]any{
			"tier":      tier,
			"capacity":  c.Capacity,
			"bytes":     c.Bytes,
			"objects":   c.Objects,
			"hits":      c.Hits,
			"misses":    c.Misses,
			"hit_ratio": ratio(c.Hits, c.Hits+c.Misses),
		}
	}
	tiers := make([]map[string]any, 0, 3)
	if s.ram != nil {
		ram := row("ram", s.ram.Snapshot())
		ram["rejected"] = s.ram.Rejected()
		ram["served"] = s.ramServed.Load()
		ram["leases"] = s.ram.ActiveLeases()
		tiers = append(tiers, ram)
	}
	tiers = append(tiers, row("nvme", nvme))
	fallbacks := s.pfsFallbacks.Load()
	tiers = append(tiers, map[string]any{
		"tier":      "pfs",
		"served":    fallbacks,
		"hit_ratio": ratio(fallbacks, s.reads.Load()),
	})
	return tiers
}

// ratio renders num/den as a float, 0 when den is zero.
func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
