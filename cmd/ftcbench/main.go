// Command ftcbench regenerates the paper's tables and figures from the
// reproduction's implementations.
//
// Usage:
//
//	ftcbench -exp all                 # every experiment at paper scale
//	ftcbench -exp fig5b -scale quick  # one experiment, seconds-scale
//	ftcbench -exp fig6b -seed 7
//
// Experiments: table1, fig1, fig2, fig5a, fig5b, fig6a, fig6b, extrepl,
// extvnode, all.
//
// Two live-cluster modes measure what the benchmark suite (bench/) does
// not yet:
//
//	ftcbench -ingest   # sync puts vs the batched async pipeline
//	ftcbench -adaptft  # adaptive policy vs every static one, phased chaos
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

// benchLog is the process logger: results go to stdout as tables,
// diagnostics go to stderr as structured records.
var benchLog = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	exp := flag.String("exp", "all", "experiment: table1|fig1|fig2|fig5a|fig5b|fig6a|fig6b|extrepl|extvnode|all")
	scaleName := flag.String("scale", "paper", "scale: paper|quick")
	seed := flag.Int64("seed", 1, "random seed")
	csvDir := flag.String("csv", "", "also write <dir>/<exp>.csv for each experiment")
	hpClients := flag.Int("clients", 16, "live modes: concurrent client connections")
	hpNodes := flag.Int("nodes", 4, "live modes: server nodes")
	hpFiles := flag.Int("files", 512, "live modes: files in the working set")
	hpFileBytes := flag.Int64("filebytes", 4096, "live modes: bytes per file")
	hpDuration := flag.Duration("duration", 3*time.Second, "ingest: measurement window")
	adaptFT := flag.Bool("adaptft", false, "compare the adaptive policy controller against every static strategy over seeded phase-shift schedules, JSON to -adaptout")
	aftUnit := flag.Duration("unit", time.Second, "adaptft: base duration of one schedule phase")
	aftPFSDelay := flag.Duration("pfsdelay", 10*time.Millisecond, "adaptft: injected PFS read latency during contention phases")
	aftReadDelay := flag.Duration("readdelay", time.Millisecond, "adaptft: per-read device service time on servers")
	aftSeeds := flag.Int("seeds", 3, "adaptft: number of consecutive seeds starting at -seed")
	aftReps := flag.Int("reps", 2, "adaptft: best-of-N runs per policy (cancels machine noise)")
	aftOut := flag.String("adaptout", filepath.Join("results", "BENCH_adaptft.json"), "adaptft: JSON result path ('' = stdout only)")
	ingestBench := flag.Bool("ingest", false, "drive the write path: sync puts vs the batched async pipeline, JSON to -out")
	ingBatch := flag.Int("batch", 64, "ingest: max entries per wire batch")
	ingFlushEvery := flag.Int("flushevery", 4096, "ingest: puts between explicit Flush barriers")
	ingOut := flag.String("out", filepath.Join("results", "BENCH_ingest.json"), "ingest: JSON result path ('' = stdout only)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			benchLog.Error("cpu profile create failed", "path", *cpuprofile, "err", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			benchLog.Error("cpu profile start failed", "err", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *ingestBench {
		// The ingest bench targets the paper-scale write fan-out: 64
		// simulated nodes unless -nodes was given explicitly.
		nodes, objBytes := *hpNodes, *hpFileBytes
		nodesSet, bytesSet := false, false
		flag.Visit(func(f *flag.Flag) {
			nodesSet = nodesSet || f.Name == "nodes"
			bytesSet = bytesSet || f.Name == "filebytes"
		})
		if !nodesSet {
			nodes = 64
		}
		if !bytesSet {
			// Ingest default: the paper's many-small-files training regime.
			objBytes = 1024
		}
		if err := runIngest(ingestConfig{
			nodes:      nodes,
			clients:    *hpClients,
			objBytes:   objBytes,
			duration:   *hpDuration,
			seed:       *seed,
			batch:      *ingBatch,
			flushEvery: *ingFlushEvery,
			out:        *ingOut,
		}); err != nil {
			benchLog.Error("ingest run failed", "err", err)
			os.Exit(1)
		}
		return
	}

	if *adaptFT {
		// The comparison needs a fleet wide enough that one dead arc is a
		// small fraction of placements: 16 nodes unless -nodes was given,
		// and a smaller dataset so epochs resolve within a phase.
		nodes, clients, files := *hpNodes, *hpClients, *hpFiles
		nodesSet, clientsSet, filesSet := false, false, false
		flag.Visit(func(f *flag.Flag) {
			nodesSet = nodesSet || f.Name == "nodes"
			clientsSet = clientsSet || f.Name == "clients"
			filesSet = filesSet || f.Name == "files"
		})
		if !nodesSet {
			nodes = 16
		}
		if !clientsSet {
			clients = 4
		}
		if !filesSet {
			files = 200
		}
		seeds := make([]int64, 0, *aftSeeds)
		for i := 0; i < *aftSeeds; i++ {
			seeds = append(seeds, *seed+int64(i))
		}
		if err := runAdaptFT(adaptftConfig{
			nodes:     nodes,
			clients:   clients,
			files:     files,
			fileBytes: *hpFileBytes,
			unit:      *aftUnit,
			pfsDelay:  *aftPFSDelay,
			readDelay: *aftReadDelay,
			seeds:     seeds,
			reps:      *aftReps,
			out:       *aftOut,
		}); err != nil {
			benchLog.Error("adaptft run failed", "err", err)
			os.Exit(1)
		}
		return
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			benchLog.Error("csv dir create failed", "dir", *csvDir, "err", err)
			os.Exit(1)
		}
	}

	var scale experiments.Scale
	switch *scaleName {
	case "paper":
		scale = experiments.PaperScale()
	case "quick":
		scale = experiments.QuickScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	scale.Seed = *seed

	run := func(name string, f func(experiments.Scale) interface{ Format() string }) {
		start := time.Now()
		out := f(scale)
		fmt.Println(out.Format())
		fmt.Printf("  [%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
		if *csvDir == "" {
			return
		}
		cw, ok := out.(experiments.CSVWriter)
		if !ok {
			return
		}
		path := filepath.Join(*csvDir, name+".csv")
		file, err := os.Create(path)
		if err != nil {
			benchLog.Error("csv create failed", "path", path, "err", err)
			os.Exit(1)
		}
		if err := cw.WriteCSV(file); err != nil {
			benchLog.Error("csv write failed", "path", path, "err", err)
			os.Exit(1)
		}
		// Close reports a failed final write; ignoring it would leave a
		// truncated CSV behind a "wrote" line.
		if err := file.Close(); err != nil {
			benchLog.Error("csv close failed", "path", path, "err", err)
			os.Exit(1)
		}
		fmt.Printf("  [wrote %s]\n\n", path)
	}

	all := map[string]func(experiments.Scale) interface{ Format() string }{
		"table1":   func(s experiments.Scale) interface{ Format() string } { return experiments.Table1(s) },
		"fig1":     func(s experiments.Scale) interface{ Format() string } { return experiments.Fig1(s) },
		"fig2":     func(s experiments.Scale) interface{ Format() string } { return experiments.Fig2(s) },
		"fig5a":    func(s experiments.Scale) interface{ Format() string } { return experiments.Fig5a(s) },
		"fig5b":    func(s experiments.Scale) interface{ Format() string } { return experiments.Fig5b(s) },
		"fig6a":    func(s experiments.Scale) interface{ Format() string } { return experiments.Fig6a(s) },
		"fig6b":    func(s experiments.Scale) interface{ Format() string } { return experiments.Fig6b(s) },
		"extrepl":  func(s experiments.Scale) interface{ Format() string } { return experiments.ExtReplication(s) },
		"extvnode": func(s experiments.Scale) interface{ Format() string } { return experiments.ExtVnodeSweep(s) },
	}

	if *exp == "all" {
		for _, name := range []string{
			"table1", "fig1", "fig2", "fig5a", "fig5b", "fig6a", "fig6b",
			"extrepl", "extvnode",
		} {
			run(name, all[name])
		}
		return
	}
	f, ok := all[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	run(*exp, f)
}
