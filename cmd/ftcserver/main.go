// Command ftcserver runs one FT-Cache (HVAC) server daemon over TCP —
// the equivalent of the artifact's `srun ./ftc_server`.
//
// The daemon owns this node's cache tier and falls back to the PFS
// directory on miss:
//
//	ftcserver -node node-0000 -listen :7070 -pfs /mnt/lustre/dataset \
//	          -nvme-capacity 3500000000000
//
// Point every training rank's client (or ftcctl) at the fleet.
//
// Observability endpoints (all on the -metrics address):
//
//	/metrics        Prometheus exposition
//	/debug/ftcache  JSON debug snapshot (plus a goroutines section with -pprof)
//	/debug/traces   flight-recorder dump (enable recording with -trace-sample)
//	/debug/pprof/*  net/http/pprof profiles (with -pprof)
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/hvac"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	node := flag.String("node", "node-0000", "this server's node identity")
	listen := flag.String("listen", ":7070", "TCP listen address")
	pfsDir := flag.String("pfs", "", "directory served as the PFS tier (required)")
	capacity := flag.Int64("nvme-capacity", 0, "cache capacity in bytes (0 = unbounded)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus /metrics, JSON /debug/ftcache and /debug/traces on this address (e.g. :9090; empty = disabled)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the -metrics address and add a goroutine-dump section to /debug/ftcache")
	traceSample := flag.Int("trace-sample", 0, "record request traces for 1-in-N requests (0 = tracing off, 1 = every request)")
	traceHead := flag.Int("trace-head", 16, "flight-recorder head sampling: keep 1-in-N unremarkable recorded traces (errors and the slow tail are always kept)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("node", *node)

	if *pfsDir == "" {
		fmt.Fprintln(os.Stderr, "ftcserver: -pfs is required")
		os.Exit(2)
	}
	pfs, err := storage.NewDirStore(*pfsDir)
	if err != nil {
		logger.Error("pfs init failed", "dir", *pfsDir, "err", err)
		os.Exit(1)
	}

	if *traceSample > 0 {
		rec := trace.Enable(trace.DefaultCapacity, *traceHead)
		rec.SetSampleRate(*traceSample)
		logger.Info("request tracing enabled",
			"sample_rate", *traceSample, "head_rate", *traceHead, "capacity", trace.DefaultCapacity)
	}

	srv := hvac.NewServer(hvac.ServerConfig{
		Node:         cluster.NodeID(*node),
		NVMeCapacity: *capacity,
	}, pfs)

	lis, err := rpc.TCPNetwork{}.Listen(*listen)
	if err != nil {
		logger.Error("listen failed", "addr", *listen, "err", err)
		os.Exit(1)
	}
	logger.Info("serving", "addr", lis.Addr().String(), "pfs_root", pfs.Root())

	if *pprofOn {
		// The goroutine section makes /debug/ftcache self-contained for
		// "is something wedged" triage: a count plus full stacks, without
		// reaching for the pprof tooling.
		telemetry.Default().RegisterDebug("goroutines", func() any {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			return map[string]any{
				"count": runtime.NumGoroutine(),
				"stack": string(buf[:n]),
			}
		})
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/", telemetry.Handler(telemetry.Default()))
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		go func() {
			logger.Info("telemetry listening", "addr", *metricsAddr, "pprof", *pprofOn)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				logger.Error("telemetry server failed", "err", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		logger.Info("shutting down", "signal", s.String())
		srv.Close()
	}()

	if err := srv.Serve(lis); err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
	srv.Close()
}
