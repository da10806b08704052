package rpc

import (
	"sync"

	"repro/internal/telemetry"
)

// rpcMetrics are the transport-level series, shared by every Client in
// the process (a training rank opens one connection per server; the
// aggregate is the interesting signal). Handles are resolved once and
// cached — Call never touches the registry.
type rpcMetrics struct {
	roundtrip *telemetry.Histogram // successful call latency
	inflight  *telemetry.Gauge     // calls issued and not yet resolved
	calls     *telemetry.Counter   // every Call, any outcome
	timeouts  *telemetry.Counter   // ErrTimeout outcomes
	failures  *telemetry.Counter   // ErrClosed / write / context failures

	// Coalesced-write series (the pipelined wire protocol): one flush is
	// one Write syscall; frames/flush > 1 is the amortization win.
	clientFlushes   *telemetry.Counter // client-side flushes (writes issued)
	clientFrames    *telemetry.Counter // client-side frames written
	clientCoalesced *telemetry.Counter // frames that shared a flush with another
	serverFlushes   *telemetry.Counter // server-side response flushes
	serverFrames    *telemetry.Counter // server-side response frames
	serverCoalesced *telemetry.Counter // response frames that shared a flush
	respDropped     *telemetry.Counter // computed responses lost to a write error (a response parked behind another goroutine's failed flush goes uncounted)
}

var (
	metricsOnce sync.Once
	metricsInst *rpcMetrics
)

func metrics() *rpcMetrics {
	metricsOnce.Do(func() {
		reg := telemetry.Default()
		metricsInst = &rpcMetrics{
			roundtrip: reg.Histogram("ftc_rpc_roundtrip_seconds"),
			inflight:  reg.Gauge("ftc_rpc_inflight"),
			calls:     reg.Counter("ftc_rpc_calls_total"),
			timeouts:  reg.Counter("ftc_rpc_timeouts_total"),
			failures:  reg.Counter("ftc_rpc_failures_total"),

			clientFlushes:   reg.Counter("ftc_rpc_client_flushes_total"),
			clientFrames:    reg.Counter("ftc_rpc_client_frames_total"),
			clientCoalesced: reg.Counter("ftc_rpc_client_coalesced_frames_total"),
			serverFlushes:   reg.Counter("ftc_rpc_server_flushes_total"),
			serverFrames:    reg.Counter("ftc_rpc_server_frames_total"),
			serverCoalesced: reg.Counter("ftc_rpc_server_coalesced_frames_total"),
			respDropped:     reg.Counter("ftc_rpc_resp_write_errors_total"),
		}
		m := metricsInst
		reg.RegisterDebug("rpc", func() any {
			return map[string]any{
				"calls":                   m.calls.Load(),
				"timeouts":                m.timeouts.Load(),
				"failures":                m.failures.Load(),
				"responses_dropped":       m.respDropped.Load(),
				"client_flushes":          m.clientFlushes.Load(),
				"client_frames":           m.clientFrames.Load(),
				"client_coalesced_frames": m.clientCoalesced.Load(),
				"server_flushes":          m.serverFlushes.Load(),
				"server_frames":           m.serverFrames.Load(),
				"server_coalesced_frames": m.serverCoalesced.Load(),
			}
		})
	})
	return metricsInst
}

// clientFlushObserver adapts the request-path flush stats onto the
// shared counters (one callback per Write the coalescing writer issues).
func clientFlushObserver(m *rpcMetrics) func(frames, bytes int) {
	return func(frames, bytes int) {
		m.clientFlushes.Inc()
		m.clientFrames.Add(int64(frames))
		if frames > 1 {
			m.clientCoalesced.Add(int64(frames))
		}
	}
}

// serverFlushObserver is clientFlushObserver for the response path.
func serverFlushObserver(m *rpcMetrics) func(frames, bytes int) {
	return func(frames, bytes int) {
		m.serverFlushes.Inc()
		m.serverFrames.Add(int64(frames))
		if frames > 1 {
			m.serverCoalesced.Add(int64(frames))
		}
	}
}
