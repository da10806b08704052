// Package trainsim models FT-Cache training runs at Frontier scale
// (64–1024 nodes) on the discrete-event engine, reproducing the paper's
// Fig 5(a), 5(b) and 6(a).
//
// What is modelled mechanistically (not curve-fit):
//
//   - real placement: the same hash-ring / modulo code paths the live
//     system uses decide which node owns every one of the 524,288 files;
//   - cold first epoch: every first touch is a PFS fetch that then
//     populates the owner's NVMe;
//   - batch-synchronous steps: a step ends when the slowest node ends
//     (the straggler barrier), and cold/lost PFS reads cannot be hidden
//     behind compute while cached reads can (pipeline prefetch);
//   - PFS contention: concurrent PFS readers share aggregate bandwidth
//     and queue on the metadata service;
//   - strategy semantics: NoFT aborts; FT w/ PFS redirects lost files to
//     the PFS in every subsequent epoch; FT w/ NVMe re-owns lost files on
//     the ring and pays one PFS fetch each;
//   - Horovod elastic: a failure rolls the epoch back to its start with
//     one fewer rank plus a fixed resumption cost.
//
// Absolute times depend on calibration constants (documented below and
// in EXPERIMENTS.md); shapes and orderings emerge from the mechanisms.
package trainsim

import (
	"time"

	"repro/internal/failure"
	"repro/internal/ftcache"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Config parameterizes one simulated run.
type Config struct {
	// Nodes is the number of compute nodes (ranks); one HVAC server and
	// one trainer rank per node, as on Frontier.
	Nodes int
	// Dataset geometry (file count and size drive all I/O).
	Dataset workload.Dataset
	// Epochs to train (the paper runs 5).
	Epochs int
	// LocalBatch is the per-node samples per step. Horovod elastic keeps
	// the local batch fixed when ranks die, so the global batch is
	// LocalBatch × live ranks and an epoch has
	// ceil(files / (LocalBatch × live)) steps.
	LocalBatch int
	// Strategy selects the fault-tolerance policy.
	Strategy ftcache.StrategyKind
	// VirtualNodes per physical node for the ring strategy.
	VirtualNodes int
	// Replication (> 1, ring strategy only) keeps that many cached
	// copies per file on distinct ring owners — the replication
	// extension. A failure then re-routes to a node that already holds
	// the data: no PFS fetch until a file's replicas are exhausted.
	Replication int
	// Seed drives shuffles and random victim selection.
	Seed int64

	// Device models. NVMe is the type the live servers block on
	// (hvac.ServerConfig.ReadDelay builds one too); the simulator reads
	// only its pure ReadTime. PFS stays the bare model: a step charges
	// its metadata queue by the step's ops and its bandwidth share by the
	// step's reading ranks, two concurrencies one ReadTime cannot carry.
	NVMe *storage.Device
	Net  storage.NetworkModel
	PFS  storage.PFSModel

	// ComputePerSample is node-level GPU time per sample (8 GPUs
	// aggregated).
	ComputePerSample time.Duration
	// StepOverhead is the fixed allreduce/barrier cost per step.
	StepOverhead time.Duration
	// EpochOverhead is the fixed per-epoch cost (shuffle, bookkeeping).
	EpochOverhead time.Duration
	// FTReadOverhead is the per-read client bookkeeping cost of the
	// fault-tolerance machinery (timeout monitoring, mutex-guarded maps);
	// applied to FT strategies only. This is what makes NoFT slightly
	// fastest in Fig 5(a).
	FTReadOverhead time.Duration
	// DetectionTime is TTL × TIMEOUT_LIMIT: dead time between a failure
	// and its declaration by the detector.
	DetectionTime time.Duration
	// ElasticRestartCost is Horovod elastic's fixed resumption cost
	// (communicator rebuild, state broadcast).
	ElasticRestartCost time.Duration
	// DirectPFSFactor scales the cost of *client-direct* PFS reads (the
	// FT w/ PFS redirection path) relative to server-mediated fetches.
	// The original HVAC paper's core result is that routing reads
	// through the cache daemons beats direct Lustre access even when the
	// data ultimately comes from the PFS: the daemon issues large
	// sequential reads from a dedicated I/O path, while a direct read
	// funnels through LD_PRELOAD into the framework's input pipeline.
	// <= 0 selects 1 (no penalty).
	DirectPFSFactor float64

	// Failures is the injection plan.
	Failures []failure.Event
}

// Frontier returns the calibrated configuration for the paper's setup at
// the given scale and strategy. See EXPERIMENTS.md for the calibration
// rationale; the anchor is the published relative overheads, not
// absolute runtimes.
func Frontier(nodes int, strategy ftcache.StrategyKind) Config {
	pfs := storage.FrontierOrion()
	// DL reads on the shared, HDD-backed Orion capacity tier are ~2.6 MB
	// and random; the effective per-stream rate is far below marketing
	// sequential numbers (≈8.7 ms per sample at 300 MB/s). Steps that
	// touch the PFS additionally stall on the metadata service (§II-A),
	// ~1 ms per queued op at 4-wide effective parallelism, saturating at
	// 24 ms under large bursts where readahead and RPC batching kick in.
	pfs.PerClientCap = 300 * storage.MiB
	pfs.MetadataOpTime = time.Millisecond
	pfs.MetadataParallelism = 4
	pfs.MetadataWaitCap = 24 * time.Millisecond
	return Config{
		Nodes:              nodes,
		Dataset:            workload.CosmoFlowTrain(),
		Epochs:             5,
		LocalBatch:         8,
		Strategy:           strategy,
		VirtualNodes:       100,
		Seed:               1,
		NVMe:               storage.FrontierNVMe().Device(),
		Net:                storage.FrontierNetwork(),
		PFS:                pfs,
		ComputePerSample:   70 * time.Millisecond,
		StepOverhead:       2 * time.Millisecond,
		EpochOverhead:      5 * time.Second,
		FTReadOverhead:     1500 * time.Microsecond,
		DetectionTime:      2 * time.Second, // TTL 1s × limit 2
		ElasticRestartCost: 8 * time.Second,
		DirectPFSFactor:    4.0,
	}
}
